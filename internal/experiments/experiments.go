// Package experiments regenerates, as tables, the quantitative content of
// the paper: every theorem's bound is exercised by a concrete workload and
// reported next to the measured value. Each experiment has one parameter
// set: EXPERIMENTS.md at the repository root publishes its table, the
// goldens pin the same table, and `go test -bench` at the root and
// ppsim exp re-run it.
//
// Because the paper is an extended abstract of lower bounds, its "tables
// and figures" are the theorems themselves plus the two figures (the
// architecture of Figure 1 and the proof schematic of Figure 2, which is
// realized by the steering adversary). The mapping is recorded in
// DESIGN.md §4.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ppsim/internal/cell"
	"ppsim/internal/traffic"
)

// Table is one regenerated result.
type Table struct {
	// ID is the experiment identifier (E1..E28), matching DESIGN.md §4.
	ID string
	// Title names the experiment.
	Title string
	// Claim quotes the paper's bound or statement being exercised.
	Claim string
	// Columns and Rows carry the measurements, pre-formatted.
	Columns []string
	Rows    [][]string
	// Notes carries caveats (constant-factor conventions, substitutions).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Text renders the table with aligned columns for terminals.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, v := range row {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	line := func(cells []string) {
		for i, v := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (experiment ID prefixed as a
// column so multiple tables can be concatenated into one file).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(v string) string {
		if strings.ContainsAny(v, ",\"\n") {
			return `"` + strings.ReplaceAll(v, `"`, `""`) + `"`
		}
		return v
	}
	writeRow := func(cells []string) {
		b.WriteString(esc(t.ID))
		for _, v := range cells {
			b.WriteByte(',')
			b.WriteString(esc(v))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown. Pipe characters
// inside cells (e.g. the |I| set notation) are escaped so they do not split
// columns.
func (t *Table) Markdown() string {
	esc := func(cells []string) []string {
		out := make([]string, len(cells))
		for i, v := range cells {
			out[i] = strings.ReplaceAll(v, "|", "\\|")
		}
		return out
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "**Claim:** %s\n\n", t.Claim)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(esc(t.Columns), " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(esc(row), " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note: %s*\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// Entry registers an experiment.
type Entry struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

var registry []Entry

func register(id, title string, run func() (*Table, error)) {
	registry = append(registry, Entry{ID: id, Title: title, Run: run})
}

// All returns the registered experiments in ID order.
func All() []Entry {
	out := append([]Entry(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// E2 < E10 numerically, not lexically.
		return entryNum(out[i].ID) < entryNum(out[j].ID)
	})
	return out
}

func entryNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// Get returns the experiment with the given ID.
func Get(id string) (Entry, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// itoa/f helpers keep row construction terse.
func itoa[T ~int | ~int32 | ~int64 | ~uint64](v T) string { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string                               { return fmt.Sprintf("%.2f", v) }

// materialize drains a possibly-unbounded source (e.g. a regulator over a
// finite demand) into a finite trace: arrivals are pulled slot by slot
// until the demand horizon has passed and the source goes silent.
func materialize(n int, src traffic.Source, demandEnd cell.Time) (*traffic.Trace, error) {
	tr := traffic.NewTrace()
	var buf []traffic.Arrival
	silent := cell.Time(0)
	for s := cell.Time(0); s < demandEnd*16+1024; s++ {
		buf = src.Arrivals(s, buf[:0])
		for _, a := range buf {
			if err := tr.Add(s, a.In, a.Out); err != nil {
				return nil, err
			}
		}
		if s >= demandEnd {
			if len(buf) == 0 {
				silent++
				if silent > 4 {
					return tr, nil
				}
			} else {
				silent = 0
			}
		}
	}
	return nil, fmt.Errorf("experiments: source did not quiesce after its demand horizon %d", demandEnd)
}
