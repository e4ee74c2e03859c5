package main

import (
	"math"
	"strings"
	"testing"

	"tcast/internal/faults"
)

// TestRunServerRejectsBadMiss: a -miss outside [0, 1] or NaN must fail
// before the server listens, not run a clamped channel. The address is
// unlistenable, so a missing check fails with a listen error instead of
// serving forever.
func TestRunServerRejectsBadMiss(t *testing.T) {
	for _, miss := range []float64{-0.1, 1.5, math.NaN()} {
		err := runServer("127.0.0.1:-1", 4, miss, 1, 1, faults.Config{})
		if err == nil || !strings.Contains(err.Error(), "-miss") {
			t.Errorf("miss=%v: err = %v, want a -miss range error", miss, err)
		}
	}
}
