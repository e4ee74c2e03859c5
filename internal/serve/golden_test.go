package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.json from this run")

// ledgerPath holds the SHA-256 of contendedLedger(t, 2, n) per fleet size.
const ledgerPath = "testdata/ledger.json"

// ledgerFleets are the contended fleet sizes the golden ledger pins: a
// lone session, and fleets that contend on one medium.
var ledgerFleets = []int{1, 6, 12, 24}

// TestSchedulerGoldenLedger pins the contended slot ledger absolutely.
// TestSchedulerDeterministic compares the scheduler with itself across
// GOMAXPROCS, so a change that repriced every run the same way would
// pass it; this test would not. go test -run TestSchedulerGoldenLedger
// -update rewrites the file.
func TestSchedulerGoldenLedger(t *testing.T) {
	got := make(map[string]string, len(ledgerFleets))
	for _, n := range ledgerFleets {
		sum := sha256.Sum256(contendedLedger(t, 2, n))
		got[strconv.Itoa(n)] = hex.EncodeToString(sum[:])
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d fleets, test runs %d", ledgerPath, len(want), len(got))
	}
	for _, n := range ledgerFleets {
		key := strconv.Itoa(n)
		if got[key] != want[key] {
			t.Errorf("%d sessions: ledger digest %.12s, golden %.12s", n, got[key], want[key])
		}
	}
}
