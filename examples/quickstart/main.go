// Quickstart: reproduce the paper's Listing 1 end to end.
//
// We open a SQLite-profile database under test with the Listing 1 bug
// injected (a partial index incorrectly used for `IS NOT <literal>`
// predicates), run the exact statements from the paper, and then let PQS
// find the same bug class automatically from scratch. The database is
// opened through the backend-agnostic SUT boundary — swap "memengine"
// for "wire" to drive the same engine through database/sql instead.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sut"
	_ "repro/internal/sut/memengine"
	_ "repro/internal/sut/wire"
)

func main() {
	// --- Part 1: the paper's Listing 1, verbatim -------------------------
	fs := faults.NewSet(faults.PartialIndexNotNull)
	db, err := sut.Open("memengine", sut.Session{Dialect: dialect.SQLite, Faults: fs})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	setup := `
		CREATE TABLE t0(c0);
		CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
		INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL);`
	if _, err := db.Exec(setup); err != nil {
		log.Fatal(err)
	}
	res, err := db.Query(`SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Listing 1 on the faulty engine returned %d rows (expected 4):\n", len(res.Rows))
	for _, row := range res.Rows {
		fmt.Printf("  c0 = %s\n", row[0])
	}
	fmt.Println("The NULL row is missing: NULL IS NOT 1 evaluates to TRUE, but the")
	fmt.Println("partial index i0 excludes NULLs and the planner wrongly used it.")
	fmt.Println()

	// --- Part 2: PQS finds the bug automatically -------------------------
	fmt.Println("Hunting the same bug with Pivoted Query Synthesis...")
	for seed := int64(1); ; seed++ {
		tester := core.NewTester(core.Config{
			Session: sut.Session{Dialect: dialect.SQLite, Faults: fs},
			Seed:    seed,
		})
		bug, err := tester.RunDatabase()
		if err != nil {
			log.Fatal(err)
		}
		if bug == nil {
			continue
		}
		fmt.Printf("detected by the %s oracle after %d random databases:\n", bug.Oracle, seed)
		fmt.Printf("  %s\n", bug.Message)
		fmt.Println("reproduction trace:")
		for _, sql := range bug.Trace {
			fmt.Printf("  %s;\n", sql)
		}
		return
	}
}
