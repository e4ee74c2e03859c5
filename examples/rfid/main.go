// RFID inventory management: the paper's Section II-C / VII extension
// use-case. A reader asks "are at least t tags of this product class still
// on the shelf?" without inventorying every tag. RCD-style threshold
// querying scales with the answer, not with the tag population — exactly
// the property RFID systems need (Vaidya & Das 2008).
//
// This example compares tcast against the sequential inventory a
// conventional reader would run, across shelf populations from 256 to
// 4096 tags.
package main

import (
	"fmt"
	"log"

	"tcast"
	"tcast/internal/baseline"
	"tcast/internal/idset"
	"tcast/internal/rng"
)

func main() {
	const (
		threshold = 25 // restock when fewer than 25 units remain
		runs      = 200
	)
	r := rng.New(5)

	fmt.Println("restock check: are at least 25 tags of the product class present?")
	fmt.Printf("\n%8s  %8s  %14s  %16s\n", "tags", "in stock", "tcast queries", "sequential slots")
	for _, n := range []int{256, 1024, 4096} {
		for _, stock := range []int{5, 25, 200} {
			var tcastCost, seqCost float64
			for i := 0; i < runs; i++ {
				seedBase := uint64(n*1000000 + stock*1000 + i)
				tags := r.Split(seedBase).Sample(n, stock)

				net, err := tcast.NewNetwork(n, tags, tcast.WithSeed(seedBase))
				if err != nil {
					log.Fatal(err)
				}
				res, err := net.Query(threshold, tcast.ProbABNS())
				if err != nil {
					log.Fatal(err)
				}
				if res.Decision != (stock >= threshold) {
					log.Fatalf("wrong restock decision for n=%d stock=%d", n, stock)
				}
				tcastCost += float64(res.Queries)

				pos := idset.NewDense(n)
				for _, id := range tags {
					pos.Add(id)
				}
				seq := baseline.Sequential{}.Run(n, threshold, pos, r.Split(seedBase+1), nil)
				seqCost += float64(seq.Slots)
			}
			fmt.Printf("%8d  %8d  %14.1f  %16.1f\n",
				n, stock, tcastCost/runs, seqCost/runs)
		}
	}
	fmt.Println("\ntcast cost tracks the threshold and the answer; sequential")
	fmt.Println("inventory pays for the whole population when stock runs low.")
}
