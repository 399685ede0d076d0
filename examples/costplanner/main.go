// Cost-planner example: use the Appendix-A cost model and the
// Calibrator without executing a join — the paper's methodology of
// planning radix bits and insertion windows from hierarchy
// parameters.
package main

import (
	"fmt"
	"log"

	rd "radixdecluster"
)

func main() {
	h := rd.Pentium4()
	fmt.Println("hierarchy (paper's 2.2GHz Pentium 4):")
	for _, l := range h.Levels {
		kind := "cache"
		if l.TLB {
			kind = "TLB"
		}
		fmt.Printf("  %-4s %-5s size=%-8d line=%-5d miss=%.1fns\n",
			l.Name, kind, l.SizeBytes, l.LineBytes, l.MissNanos)
	}

	// Re-derive the parameters by measurement, as a system without a
	// spec sheet would (§1.1's Calibrator).
	cal, err := rd.Calibrate(h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncalibrated (recovered by footprint/stride sweeps):")
	for _, l := range cal.Levels {
		fmt.Printf("  %-4s size=%-8d\n", l.Name, l.SizeBytes)
	}

	// Planning rules of §3.1/§3.2 for a 10M-tuple join, the paper's
	// worked example.
	const n = 10_000_000
	bits, ignore := rd.PlanClusterBits(h, n, 4)
	window := rd.PlanWindowTuples(h, 4)
	fmt.Printf("\nplanning for a %d-tuple relation of 4-byte values:\n", n)
	fmt.Printf("  partial Radix-Cluster: B=%d (2^%d clusters), ignore %d low bits\n", bits, bits, ignore)
	fmt.Printf("  Radix-Decluster window: %d tuples (%d KB = C/2)\n", window, window*4/1024)
	fmt.Printf("  scalability limit C^2/(32*w^2): %d tuples\n", rd.DeclusterLimit(h, 4))

	// Model a full query without running it.
	keys := make([]int32, 100_000)
	for i := range keys {
		keys[i] = int32(i)
	}
	rel := func(name string) *rd.Relation {
		r, err := rd.NewRelation(name,
			rd.Column{Name: "key", Values: keys},
			rd.Column{Name: "a", Values: keys})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	plan, err := rd.PlanJoin(rd.JoinQuery{
		Larger: rel("l"), Smaller: rel("s"),
		LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a"}, SmallerProject: []string{"a"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplanned 100K-tuple join: %s\n", plan)
	fmt.Printf("modeled cost of the plan: %.2f ms (on the paper's hardware)\n", plan.ModeledMs)
}
