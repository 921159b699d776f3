package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment outputs and EXPERIMENTS.md's published tables")

// tables runs each experiment at most once per test binary: the goldens,
// the shape checks, the published-tables check and the per-experiment
// assertions all read the same table.
var tables = sync.OnceValue(func() map[string]func() (*Table, error) {
	m := map[string]func() (*Table, error){}
	for _, e := range All() {
		m[e.ID] = sync.OnceValues(e.Run)
	}
	return m
})

// table returns experiment id's memoised table, failing t if it errored.
func table(t *testing.T, id string) *Table {
	t.Helper()
	run, ok := tables()[id]
	if !ok {
		t.Fatalf("experiment %s is not registered", id)
	}
	tab, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestGolden pins the text output of every experiment. The whole stack is
// deterministic — traffic, algorithms, adversaries, scheduling — so any diff
// here is a real behaviour change: either an intentional model change
// (re-bless with `go test ./internal/experiments -run 'Golden|Published'
// -update`) or a regression.
func TestGolden(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			got := table(t, e.ID).Text()
			path := filepath.Join("testdata", e.ID+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("output diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// The published tables sit between these two lines of EXPERIMENTS.md.
const (
	publishedBegin = "<!-- begin: output of ppsim exp -markdown -->\n"
	publishedEnd   = "<!-- end: output of ppsim exp -markdown -->\n"
)

// TestPublishedTablesMatchSuite fails unless EXPERIMENTS.md's "Full
// results" block is byte-equal to the Markdown rendering of every
// experiment in ID order — the output of `ppsim exp -markdown`.
func TestPublishedTablesMatchSuite(t *testing.T) {
	var want strings.Builder
	for _, e := range All() {
		want.WriteString(table(t, e.ID).Markdown())
	}
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := bytes.Cut(doc, []byte(publishedBegin))
	if !ok {
		t.Fatalf("%s lacks the line %q", path, publishedBegin)
	}
	got, tail, ok := bytes.Cut(rest, []byte(publishedEnd))
	if !ok {
		t.Fatalf("%s lacks the line %q", path, publishedEnd)
	}
	if *updateGolden {
		out := bytes.NewBuffer(head[:len(head):len(head)])
		out.WriteString(publishedBegin + want.String() + publishedEnd)
		out.Write(tail)
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if string(got) != want.String() {
		g, w := strings.Split(string(got), "\n"), strings.Split(want.String(), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Errorf("%s's published tables differ from `ppsim exp -markdown` from block line %d on (re-bless with -update)", path, i+1)
	}
}
