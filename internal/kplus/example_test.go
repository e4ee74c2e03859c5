package kplus_test

import (
	"fmt"

	"tcast/internal/kplus"
	"tcast/internal/rng"
)

// ExampleThreshold answers a threshold query under the generalized k+
// radio: bins with fewer than k positive repliers are counted exactly and
// retired, so a k=4 radio needs only a handful of polls.
func ExampleThreshold() {
	r := rng.New(1)
	var ch kplus.Channel
	ch.Reset(4, 128, r.Split(1).Sample(128, 20)) // k=4, 20 of 128 positive
	res, err := kplus.Threshold(&ch, 128, 16, r.Split(2), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("at least 16 positives:", res.Decision)
	fmt.Println("cheap:", res.Queries < 30)
	// Output:
	// at least 16 positives: true
	// cheap: true
}
