package count_test

import (
	"fmt"

	"tcast/internal/count"
	"tcast/internal/fastsim"
	"tcast/internal/rng"
)

// ExampleIdentify recovers the exact positive set with adaptive group
// testing — far fewer polls than one per node.
func ExampleIdentify() {
	r := rng.New(1)
	ch := fastsim.New(64, []int{5, 23, 42}, fastsim.DefaultConfig(), r)
	positives, queries, err := count.Identify(ch, 64, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("positives:", positives)
	fmt.Println("sub-linear:", queries < 64)
	// Output:
	// positives: [5 23 42]
	// sub-linear: true
}

// ExampleEstimate approximates the positive count with a logarithmic
// number of sampling probes.
func ExampleEstimate() {
	r := rng.New(2)
	positives := make([]int, 100)
	for i := range positives {
		positives[i] = i * 10
	}
	ch := fastsim.New(1024, positives, fastsim.DefaultConfig(), r.Split(1))
	members := make([]int, 1024)
	for i := range members {
		members[i] = i
	}
	xHat, queries := count.Estimate(ch, members, count.EstimateOptions{Repeats: 16}, r.Split(2), nil)
	fmt.Println("within factor two:", xHat > 50 && xHat < 200)
	fmt.Println("far below one poll per node:", queries < 256)
	// Output:
	// within factor two: true
	// far below one poll per node: true
}
