package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/sut"
)

// TestOracleFalsePositiveSoak is the soundness guard for the whole oracle
// registry: against the fault-free engine, N random databases per dialect
// must produce zero detections under every oracle, through both the
// compiled-expression path and the -disable compile tree walk (subtests
// compiled and no-compile). A false positive
// here means either an engine bug or an oracle whose metamorphic identity
// does not actually hold (e.g. float-order-sensitive aggregation).
func TestOracleFalsePositiveSoak(t *testing.T) {
	databases := 40
	if testing.Short() {
		databases = 8
	}
	for _, d := range dialect.All {
		for _, name := range []string{"pqs", "tlp", "norec"} {
			for _, sess := range []sut.Session{{Dialect: d}, {Dialect: d, NoCompile: true}} {
				mode := "compiled"
				if off := sess.Disabled(); len(off) > 0 {
					mode = "no-" + strings.Join(off, ",")
				}
				name, sess := name, sess
				t.Run(fmt.Sprintf("%s/%s/%s", d, name, mode), func(t *testing.T) {
					t.Parallel()
					tester := core.NewTester(core.Config{
						Session:      sess,
						Oracle:       name,
						Seed:         101,
						QueriesPerDB: 15,
					})
					for i := 0; i < databases; i++ {
						bug, err := tester.RunDatabase()
						if err != nil {
							t.Fatal(err)
						}
						if bug != nil {
							t.Fatalf("fault-free engine flagged by %s (%s verdict): %s\ntrace:\n  %s",
								bug.DetectedBy, bug.Oracle, bug.Message, strings.Join(bug.Trace, ";\n  "))
						}
					}
				})
			}
		}
	}
}
