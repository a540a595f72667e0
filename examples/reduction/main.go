// Reduction: detect a bug with PQS and then shrink its reproduction trace
// with the statement reducer, showing before/after — the pipeline that
// produced the paper's 3.71-statement average test cases (Figure 2).
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/reduce"
	"repro/internal/sut"
)

func main() {
	faultName := flag.String("fault", string(faults.SkipScanDistinct), "fault to hunt and reduce")
	flag.Parse()

	f := faults.Fault(*faultName)
	info, ok := faults.Lookup(f)
	if !ok {
		log.Fatalf("unknown fault %q", *faultName)
	}
	fs := faults.NewSet(f)

	var bug *core.Bug
	for seed := int64(1); bug == nil; seed++ {
		tester := core.NewTester(core.Config{Session: sut.Session{Dialect: info.Dialect, Faults: fs}, Seed: seed})
		b, err := tester.RunDatabase()
		if err != nil {
			log.Fatal(err)
		}
		bug = b
	}

	fmt.Printf("detected %s via the %s oracle:\n  %s\n\n", f, bug.Oracle, bug.Message)
	fmt.Printf("original trace (%d statements):\n", len(bug.Trace))
	for _, sql := range bug.Trace {
		fmt.Printf("  %s;\n", sql)
	}

	reduced := reduce.BugFully(bug, info.Dialect, fs)
	fmt.Printf("\nreduced trace (%d statements):\n", len(reduced))
	for _, sql := range reduced {
		fmt.Printf("  %s;\n", sql)
	}
	fmt.Printf("\n%d -> %d statements (the paper's reduced cases averaged 3.71 LOC, max 8)\n",
		len(bug.Trace), len(reduced))
}
