// Package report renders the reproduction's tables and figures in the
// shape the paper presents them: ASCII tables for Tables 1–4 and data
// series for Figures 2–3. cmd/benchreport, the one generator of the
// paper's results, and the ablation benchmarks print through it.
package report

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Table is a titled ASCII table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Note    string
}

// AddRow appends one row, stringifying values.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Render draws the table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		b.WriteString(t.Note)
		b.WriteString("\n")
	}
	return b.String()
}

// Markdown renders the table as GitHub Markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Note != "" {
		b.WriteString("\n" + t.Note + "\n")
	}
	return b.String()
}

// CDFPoint is one point of a cumulative distribution (Figure 2).
type CDFPoint struct {
	X    int
	Frac float64
}

// CDF computes the cumulative distribution of integer samples.
func CDF(samples []int) []CDFPoint {
	if len(samples) == 0 {
		return nil
	}
	s := append([]int(nil), samples...)
	sort.Ints(s)
	var out []CDFPoint
	for i, v := range s {
		if len(out) > 0 && out[len(out)-1].X == v {
			out[len(out)-1].Frac = float64(i+1) / float64(len(s))
			continue
		}
		out = append(out, CDFPoint{X: v, Frac: float64(i+1) / float64(len(s))})
	}
	return out
}

// RenderCDF draws a Figure 2-style text plot.
func RenderCDF(title string, points []CDFPoint) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	b.WriteString("LOC  cumulative  \n")
	for _, p := range points {
		bars := int(p.Frac*40 + 0.5)
		fmt.Fprintf(&b, "%3d  %.2f  %s\n", p.X, p.Frac, strings.Repeat("#", bars))
	}
	return b.String()
}

// Median computes the median of integer samples (0 if empty).
func Median(samples []int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int(nil), samples...)
	sort.Ints(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

// Mean computes the mean of integer samples.
func Mean(samples []int) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0
	for _, v := range samples {
		sum += v
	}
	return float64(sum) / float64(len(samples))
}

// Max returns the maximum sample (0 if empty).
func Max(samples []int) int {
	m := 0
	for _, v := range samples {
		if v > m {
			m = v
		}
	}
	return m
}

// CountLOC counts non-blank, non-test Go source lines under dir,
// recursively (the Table 1/4 size columns).
func CountLOC(dir string) (int, error) {
	total := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				total++
			}
		}
		return sc.Err()
	})
	return total, err
}

// RepoRoot locates the repository root by walking up from the working
// directory until go.mod appears (benches run from the repo root; commands
// may run elsewhere).
func RepoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// StatementHistogram aggregates Figure 3: for each statement-kind label,
// the fraction of reduced test cases containing it.
type StatementHistogram struct {
	// Counts[kind] = number of test cases containing the kind.
	Counts map[string]int
	// Trigger[kind][oracle] = cases where this kind was the final
	// (triggering) statement, per detecting oracle.
	Trigger map[string]map[string]int
	// Total is the number of test cases aggregated.
	Total int
}

// NewStatementHistogram returns an empty histogram.
func NewStatementHistogram() *StatementHistogram {
	return &StatementHistogram{
		Counts:  map[string]int{},
		Trigger: map[string]map[string]int{},
	}
}

// AddCase records one reduced test case: its statement kinds, the kind of
// the final statement, and the oracle that caught the bug.
func (h *StatementHistogram) AddCase(kinds []string, triggerKind, oracle string) {
	h.Total++
	seen := map[string]bool{}
	for _, k := range kinds {
		if !seen[k] {
			seen[k] = true
			h.Counts[k]++
		}
	}
	if h.Trigger[triggerKind] == nil {
		h.Trigger[triggerKind] = map[string]int{}
	}
	h.Trigger[triggerKind][oracle]++
}

// Render draws the Figure 3-style per-kind bars.
func (h *StatementHistogram) Render(title string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	kinds := make([]string, 0, len(h.Counts))
	for k := range h.Counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if h.Counts[kinds[i]] != h.Counts[kinds[j]] {
			return h.Counts[kinds[i]] > h.Counts[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	for _, k := range kinds {
		frac := 0.0
		if h.Total > 0 {
			frac = float64(h.Counts[k]) / float64(h.Total)
		}
		bars := strings.Repeat("#", int(frac*30+0.5))
		trig := ""
		if tm := h.Trigger[k]; len(tm) > 0 {
			var parts []string
			for o, n := range tm {
				parts = append(parts, fmt.Sprintf("%s:%d", o, n))
			}
			sort.Strings(parts)
			trig = " triggers[" + strings.Join(parts, " ") + "]"
		}
		fmt.Fprintf(&b, "%-20s %5.1f%% %s%s\n", k, frac*100, bars, trig)
	}
	return b.String()
}
