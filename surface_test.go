package ppsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported internal functions and methods that
// no non-test file calls but that stay on purpose: test witnesses of
// internal state, references that tests compare against, and methods called
// through an interface. Keys are bare names, as the guard matches them.
var surfaceAllowlist = map[string]string{
	"Arrived":              "fabric.PPS cell counter, the witness the engine-equivalence tests compare",
	"AQTExcess":            "traffic: the Discussion's AQT admissibility claim, pinned by TestLeakyBucketIsAQTAdmissible",
	"BlockSize":            "demux.FTD block size b = ceil(h*r'), the witness the FTD tests check",
	"BucketWidth":          "obs: LogHist bucket width, the error bound the histogram quantile tests assert",
	"Departed":             "fabric.PPS cell counter, the witness the engine-equivalence tests compare",
	"Fallbacks":            "demux.FTD fallback count, the witness the FTD tests check",
	"Last":                 "obs.Series newest point, the witness the series tests check",
	"MarshalJSON":          "traffic.Trace encoding, called by encoding/json through json.Marshaler",
	"Misses":               "demux CPA-family deadline misses, the witness the CPA tests check",
	"NewBernoulliWeighted": "traffic: per-(i, j) weighted iid source whose weight checks the traffic tests pin",
	"NewBuffer":            "mux: standalone resequencing buffer the mux tests drive without a fabric",
	"NewRecorder":          "metrics: unsized recorder the metrics tests build without a stamper",
	"QueuingDelay":         "cell: Depart - Arrive, the delay the shadow and calculus tests bound",
	"Reconstruct":          "bvn: sum of weighted permutations, the witness that a decomposition is exact",
	"Reset":                "queue.FIFO and obs.LogHist reuse, pinned by their tests",
	"Route":                "clos: Slepian-Duguid routing, the witness that a PPS is a rearrangeable Clos network",
	"StrictlyNonBlocking":  "clos: Clos's m >= 2n-1 condition, checked by the Clos tests",
	"UnmarshalJSON":        "traffic.Trace decoding, called by encoding/json through json.Unmarshaler",
}

// TestInternalExportsHaveCallers fails for every exported function or method
// under internal/ that no non-test file of the module or of benchmark/ names.
// Matching is by bare name, so a name used anywhere (another type's method,
// a struct field, an interface method) counts as a caller: the guard misses
// some dead code but never flags live code. An export that only its own
// tests call is deleted, or its test reads the unexported state directly.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		declared := map[*ast.Ident]bool{}
		for _, x := range f.Decls {
			fd, ok := x.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				key = recvName(fd.Recv.List[0].Type) + "." + key
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	needed := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		switch {
		case used[name]:
		case surfaceAllowlist[name] != "":
			needed[name] = true
		default:
			dead = append(dead, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no non-test file calls it", d)
	}
	for name := range surfaceAllowlist {
		if !needed[name] {
			t.Errorf("allowlist entry %s names no uncalled export; drop it", name)
		}
	}
	if len(surfaceAllowlist) > 20 {
		t.Errorf("surface allowlist has %d entries, want at most 20", len(surfaceAllowlist))
	}
}

// recvName returns the type name of a method receiver, without pointer or
// type parameters.
func recvName(x ast.Expr) string {
	switch r := x.(type) {
	case *ast.StarExpr:
		return recvName(r.X)
	case *ast.IndexExpr:
		return recvName(r.X)
	case *ast.IndexListExpr:
		return recvName(r.X)
	case *ast.Ident:
		return r.Name
	}
	return ""
}
