// Bughunt: run campaigns over the full injected-fault corpus in every
// dialect — each fault under the testing oracle its registry entry routes
// to — printing one live line per fault. This is the example analogue of
// the paper's three-month testing campaign, compressed into a
// deterministic sweep with known ground truth. The paper's Tables 2 and 3
// over the same sweep come from go run ./cmd/benchreport.
package main

import (
	"flag"
	"fmt"

	"repro/internal/dialect"
	"repro/internal/runner"
)

func main() {
	budget := flag.Int("budget", 2000, "database budget per fault campaign")
	flag.Parse()

	// One work-stealing sweep per dialect: every fault campaign multiplexes
	// over a shared scheduler pool of pooled, resettable engine sessions
	// instead of standing up a fresh worker pool per fault.
	for _, d := range dialect.All {
		results := runner.RunCorpus(d, *budget, 1, true)
		detected := 0
		fmt.Printf("== %s ==\n", d.DisplayName())
		for _, res := range results {
			if res.Detected {
				detected++
				fmt.Printf("  %-40s found by %-6s (%s verdict) at seed %4d, reduced to %d stmts\n",
					res.Campaign.Fault, res.Bug.DetectedBy, res.Bug.Oracle, res.Seed, len(res.Reduced))
			} else {
				fmt.Printf("  %-40s MISSED in %d dbs\n", res.Campaign.Fault, res.Databases)
			}
		}
		fmt.Printf("  detected %d/%d\n", detected, len(results))
	}
}
