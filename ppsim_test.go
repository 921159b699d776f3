package ppsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ppsim"
	"ppsim/internal/fabric"
)

// TestDocsNameLiveOptions fails when README.md, DESIGN.md or MODEL.md names
// an Options.<Field> that Options does not have, or a Config.<Ident> that is
// neither a field nor a method of ppsim.Config or fabric.Config: a knob
// deleted from the code must leave the prose too.
func TestDocsNameLiveOptions(t *testing.T) {
	has := func(ident string, types ...reflect.Type) bool {
		for _, typ := range types {
			if _, ok := typ.FieldByName(ident); ok {
				return true
			}
			if _, ok := reflect.PointerTo(typ).MethodByName(ident); ok {
				return true
			}
		}
		return false
	}
	live := map[string][]reflect.Type{
		"Options": {reflect.TypeOf(ppsim.Options{})},
		"Config":  {reflect.TypeOf(ppsim.Config{}), reflect.TypeOf(fabric.Config{})},
	}
	ref := regexp.MustCompile(`\b(Options|Config)\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "MODEL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatch(text, -1) {
			if typ, ident := string(m[1]), string(m[2]); !has(ident, live[typ]...) {
				t.Errorf("%s names %s.%s, which %s does not have", doc, typ, ident, typ)
			}
		}
	}
}

// TestDocsNameLiveTests fails when README.md, DESIGN.md, MODEL.md or
// EXPERIMENTS.md cites a Test*, Fuzz* or Benchmark* name that no Go file of
// the module declares: a test deleted or renamed must leave the prose too.
func TestDocsNameLiveTests(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is a module of its own.
			if path == "benchmark" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", "MODEL.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ref.FindAllString(string(text), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no test file of the module declares", doc, name)
			}
		}
	}
}

// TestDocsCiteLiveDesignSections fails when a Go file cites a DESIGN.md
// section by number ("DESIGN.md §13", the two halves possibly on
// consecutive comment lines) that no "## N." heading of DESIGN.md carries:
// a section renumbered or deleted must take its citations along.
func TestDocsCiteLiveDesignSections(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllSubmatch(design, -1) {
		headings[string(m[1])] = true
	}
	cite := regexp.MustCompile(`DESIGN\.md\s*(?://\s*)?§(\d+)`)
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range cite.FindAllSubmatch(text, -1) {
			cited++
			if !headings[string(m[1])] {
				t.Errorf("%s cites DESIGN.md §%s, which no DESIGN.md heading carries", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no Go file cites a DESIGN.md section: is the citation pattern stale?")
	}
}

// TestNoHandRolledReference fails when a non-test Go file outside
// benchmark/ and internal/shadow names shadow.New, shadow.Switch or
// shadow.NewShaped: every switch under test is measured through
// harness.Drive against the Oracle, so a second hand-stepped reference must
// not return. benchmark/ is the one user left to migrate.
func TestNoHandRolledReference(t *testing.T) {
	banned := map[string]bool{"New": true, "Switch": true, "NewShaped": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == filepath.Join("internal", "shadow") || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "shadow" && banned[sel.Sel.Name] {
					t.Errorf("%s names shadow.%s; drive the switch through harness.Drive", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsNameProbeSeries fails when the README's "Per-slot probes" table
// and StandardProbes name different series, per-plane names normalised to
// plane_backlog[k]: a series added to the code must reach the table, and
// one deleted or renamed must leave it.
func TestDocsNameProbeSeries(t *testing.T) {
	text, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(text), "**Per-slot probes**")
	if !ok {
		t.Fatal("README.md has no **Per-slot probes** section")
	}
	name := regexp.MustCompile("`([a-z_]+(\\[k\\])?)`")
	documented := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		for _, m := range name.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			documented[m[1]] = true
		}
	}
	index := regexp.MustCompile(`\[\d+\]`)
	code := map[string]bool{}
	for _, p := range ppsim.StandardProbes(4, 3, 1, 0) {
		for _, s := range p.Series() {
			code[index.ReplaceAllString(s.Name(), "[k]")] = true
		}
	}
	for s := range code {
		if !documented[s] {
			t.Errorf("StandardProbes records %s, which README.md's Per-slot probes table does not list", s)
		}
	}
	for s := range documented {
		if !code[s] {
			t.Errorf("README.md's Per-slot probes table lists %s, which StandardProbes does not record", s)
		}
	}
}

func TestRunQuickstart(t *testing.T) {
	cfg := ppsim.Config{
		N: 8, K: 4, RPrime: 2,
		Algorithm: ppsim.Algorithm{Name: "rr"},
	}
	res, err := ppsim.Run(cfg, ppsim.NewBernoulli(8, 0.5, 500, 1), ppsim.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cells == 0 {
		t.Fatal("no cells switched")
	}
	if res.AlgorithmName != "rr" {
		t.Errorf("AlgorithmName = %q", res.AlgorithmName)
	}
	if res.Report.MaxRQD < 0 {
		t.Errorf("MaxRQD = %d; execution maximum cannot be negative for drained runs with shared arrivals", res.Report.MaxRQD)
	}
}

func TestCPAZeroRQDPublicAPI(t *testing.T) {
	// The Iyer-Awadallah-McKeown baseline (E11): S >= 2 gives exact FCFS
	// OQ mimicking.
	cfg := ppsim.Config{
		N: 8, K: 8, RPrime: 4, // S = 2
		Algorithm: ppsim.Algorithm{Name: "cpa"},
	}
	src := ppsim.Shape(8, 0, ppsim.NewBernoulli(8, 0.6, 400, 7))
	res, err := ppsim.Run(cfg, src, ppsim.Options{Horizon: 3000, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxRQD != 0 {
		t.Errorf("CPA MaxRQD = %d, want 0 at S=2", res.Report.MaxRQD)
	}
	if res.Burstiness != 0 {
		t.Errorf("shaped traffic burstiness = %d, want 0", res.Burstiness)
	}
}

func TestCompare(t *testing.T) {
	cfg := ppsim.Config{N: 6, K: 6, RPrime: 2}
	tr, err := ppsim.ConcentrationTrace(6, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppsim.Compare(cfg, []ppsim.Algorithm{
		{Name: "rr"},
		{Name: "cpa"},
	}, tr, ppsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res["cpa"].Report.MaxRQD != 0 {
		t.Errorf("cpa MaxRQD = %d", res["cpa"].Report.MaxRQD)
	}
	if res["rr"].Report.MaxRQD <= res["cpa"].Report.MaxRQD {
		t.Errorf("rr should lose to cpa under concentration: %d vs %d",
			res["rr"].Report.MaxRQD, res["cpa"].Report.MaxRQD)
	}
}

// TestCompareKeepsEveryCPAVariant runs the three CPA-family names and
// least-loaded side by side: each must come back under its own key.
func TestCompareKeepsEveryCPAVariant(t *testing.T) {
	cfg := ppsim.Config{N: 6, K: 6, RPrime: 2}
	tr, err := ppsim.ConcentrationTrace(6, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppsim.Compare(cfg, []ppsim.Algorithm{
		{Name: "cpa"}, {Name: "cpa-rotate"}, {Name: "cpa-sets"}, {Name: "least-loaded"},
	}, tr, ppsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"cpa", "cpa-rotate", "cpa-sets", "local-least-loaded"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("Compare keys = %v, want %v", keys, want)
	}
}

// TestCompareRejectsNameCollision: two random seeds report one name, so
// Compare must refuse rather than keep only the last result.
func TestCompareRejectsNameCollision(t *testing.T) {
	cfg := ppsim.Config{N: 6, K: 6, RPrime: 2}
	tr, err := ppsim.ConcentrationTrace(6, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppsim.Compare(cfg, []ppsim.Algorithm{{Name: "random", Seed: 1}, {Name: "random", Seed: 2}}, tr, ppsim.Options{})
	if err == nil || !strings.Contains(err.Error(), `reports the name "random"`) {
		t.Errorf("Compare of two random seeds = %d results, error %v; want a name-collision error", len(res), err)
	}
}

// TestAlgorithmDocListsRegistry holds the name table in the doc comment of
// Algorithm (algorithms.go) to AlgorithmNames: one line per registered
// name, and no line for a name the registry does not know.
func TestAlgorithmDocListsRegistry(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "algorithms.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GenDecl); ok && g.Tok == token.TYPE && g.Specs[0].(*ast.TypeSpec).Name.Name == "Algorithm" {
			doc = g.Doc.Text()
		}
		return doc == ""
	})
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^\t(\S+) `).FindAllStringSubmatch(doc, -1) {
		documented = append(documented, m[1])
	}
	sort.Strings(documented)
	if names := ppsim.AlgorithmNames(); !reflect.DeepEqual(documented, names) {
		t.Errorf("Algorithm's doc comment documents %v, the registry holds %v", documented, names)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	bad := []ppsim.Config{
		{N: 0, K: 1, RPrime: 1, Algorithm: ppsim.Algorithm{Name: "rr"}},
		{N: 4, K: 2, RPrime: 1, Algorithm: ppsim.Algorithm{Name: "no-such"}},
		{N: 4, K: 2, RPrime: 1},
		{N: 4, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "partition", D: 3}},
		{N: 4, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "ftd", H: 0.5}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := (ppsim.Config{N: 4, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "cpa"}}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAlgorithmNamesListsRegistry(t *testing.T) {
	names := ppsim.AlgorithmNames()
	if len(names) != 13 {
		t.Errorf("registry has %d names: %v", len(names), names)
	}
	for _, n := range names {
		cfg := ppsim.Config{N: 8, K: 8, RPrime: 2, Algorithm: ppsim.Algorithm{Name: n, D: 2, U: 2, H: 2, Capacity: -1}}
		if n == "buffered-cpa" || n == "buffered-rr" {
			cfg.BufferCap = -1
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("registered algorithm %q does not construct: %v", n, err)
		}
	}
	unknown := ppsim.Algorithm{Name: "bogus"}
	if err := (ppsim.Config{N: 4, K: 2, RPrime: 1, Algorithm: unknown}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("unknown algorithm error missing: %v", err)
	}
}

func TestInputBuffered(t *testing.T) {
	cases := map[ppsim.Algorithm]bool{
		{Name: "rr"}:                 false,
		{Name: "cpa"}:                false,
		{Name: "buffered-rr"}:        true,
		{Name: "buffered-cpa", U: 3}: true,
		{Name: "buffered-cpa", U: 0}: false,
	}
	for a, want := range cases {
		if got := a.InputBuffered(); got != want {
			t.Errorf("%v.InputBuffered() = %v, want %v", a, got, want)
		}
	}
}

func TestBufferedTheorem12PublicAPI(t *testing.T) {
	// Input-buffered u-RT CPA at S=2: relative queuing delay <= u
	// (Theorem 12), under both random and adversarial traffic.
	const u = 4
	cfg := ppsim.Config{
		N: 8, K: 8, RPrime: 4, BufferCap: u + 1,
		Algorithm: ppsim.Algorithm{Name: "buffered-cpa", U: u},
	}
	src := ppsim.Shape(8, 2, ppsim.NewBernoulli(8, 0.6, 400, 3))
	res, err := ppsim.Run(cfg, src, ppsim.Options{Horizon: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxRQD > u {
		t.Errorf("buffered-cpa MaxRQD = %d, want <= u = %d", res.Report.MaxRQD, u)
	}
}

func TestHerdingTraceSteeringTracePublicAPI(t *testing.T) {
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	tr, err := ppsim.SteeringTrace(cfg, ppsim.AllInputs(8), 0, 1, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppsim.Run(cfg, tr, ppsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := ppsim.Time(7); res.Report.MaxRQD < want {
		t.Errorf("steered MaxRQD = %d, want >= %d", res.Report.MaxRQD, want)
	}

	ht, err := ppsim.HerdingTrace(8, 0, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Count() != 14 {
		t.Errorf("herding trace count = %d", ht.Count())
	}
}

func TestPartitionInputs(t *testing.T) {
	ins := ppsim.PartitionInputs(8, 4, 2, 3) // plane 3 -> group 1
	want := []ppsim.Port{1, 3, 5, 7}
	if len(ins) != len(want) {
		t.Fatalf("PartitionInputs = %v", ins)
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Errorf("PartitionInputs = %v, want %v", ins, want)
		}
	}
}

func TestWindowBurstinessPublicAPI(t *testing.T) {
	fl := ppsim.NewFlood(4, 0, 50)
	small, err := ppsim.WindowBurstiness(4, fl, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ppsim.WindowBurstiness(4, fl, 40)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("flood window excess must grow: tau=2 -> %d, tau=40 -> %d", small, big)
	}
}

// TestShapedClosedLoopSourceRunsStepped: a Segmenter fed from the run's own
// departures is closed-loop, and shaping it must not make it read ahead —
// the regulator would pull the segmenter past slots the callback has yet to
// offer packets for, and those cells would be lost without an error.
func TestShapedClosedLoopSourceRunsStepped(t *testing.T) {
	const n, total = 4, 31
	seg := ppsim.NewSegmenter(n)
	offered := 0
	var offerErr error
	offer := func(cells int, at ppsim.Time) {
		in := ppsim.Port(offered % n)
		if _, err := seg.Offer(ppsim.Flow{In: in, Out: (in + 1) % n}, cells, at); err != nil && offerErr == nil {
			offerErr = err
		}
		offered += cells
	}
	offer(1, 0)
	cfg := ppsim.Config{N: n, K: 2, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	res, err := ppsim.Run(cfg, ppsim.Shape(n, 2, seg), ppsim.Options{
		Horizon: 200,
		OnPPSDepart: func(c ppsim.Cell) {
			if offered < total {
				offer(min(3, total-offered), c.Depart+1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if offerErr != nil {
		t.Errorf("the loop could not offer: %v", offerErr)
	}
	if offered != total || res.Report.Cells != total {
		t.Errorf("delivered %d of %d offered cells (%d planned)", res.Report.Cells, offered, total)
	}
	const why = "source *traffic.Regulator wraps a source that does not implement traffic.BatchSource"
	if res.Engine != "stepped" || res.EngineReason != why {
		t.Errorf("a shaped closed-loop source ran on the %s core (%q), want stepped (%q)", res.Engine, res.EngineReason, why)
	}
}
