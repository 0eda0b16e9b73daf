// Inconsistent updates: the §4.1 scenario. A controller with an outdated
// network view deploys configuration (c) while configuration (b) is still
// in transit. Without verification (ez-Segway) the data plane forms a
// forwarding loop and drops packets on TTL expiry; P4Update's switches
// verify locally, fast-forward to the newest consistent version, and
// deliver every packet exactly once.
//
//	go run ./examples/inconsistent-updates
package main

import (
	"fmt"
	"log"

	"p4update/internal/experiments"
)

func main() {
	fmt.Println("Scenario (paper §4.1 / Fig. 2):")
	fmt.Println("  flow v0→v4 at 125 pps, TTL 64")
	fmt.Println("  t=200ms: configuration (c) deploys")
	fmt.Println("  t=600ms: the delayed configuration (b) finally arrives")
	fmt.Println()

	for _, kind := range []experiments.SystemKind{
		experiments.KindEZSegway, experiments.KindP4Update,
	} {
		r, _, err := experiments.Fig2Opts(kind, 1, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(r)
		if r.DupAtV1 > 0 {
			fmt.Printf("  -> %s trapped packets in the v1,v2,v3 loop; %d were lost to TTL expiry\n",
				r.System, r.LostAtV4)
		} else {
			fmt.Printf("  -> %s rejected the out-of-order deployment and stayed consistent\n",
				r.System)
		}
		fmt.Println()
	}
}
