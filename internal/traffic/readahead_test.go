package traffic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// TestReadAheadFollowsTheWholeChain is the one read-ahead rule as a table:
// a chain of the package's wrappers is read ahead exactly when the source at
// its bottom is, however the wrappers nest.
func TestReadAheadFollowsTheWholeChain(t *testing.T) {
	wraps := []struct {
		name string
		wrap func(Source) Source
	}{
		{"bare", func(s Source) Source { return s }},
		{"deadline", func(s Source) Source { return WithDeadline(s, 4) }},
		{"regulator", func(s Source) Source { return NewRegulator(4, 2, s) }},
		{"deadline(regulator)", func(s Source) Source { return WithDeadline(NewRegulator(4, 2, s), 4) }},
		{"regulator(deadline)", func(s Source) Source { return NewRegulator(4, 2, WithDeadline(s, 4)) }},
		{"deadline(deadline)", func(s Source) Source { return WithDeadline(WithDeadline(s, 8), 4) }},
		{"regulator(regulator)", func(s Source) Source { return NewRegulator(4, 2, NewRegulator(4, 1, s)) }},
	}
	inners := []struct {
		name  string
		mk    func() Source
		ahead bool
	}{
		{"read-ahead", func() Source { return NewBernoulli(4, 0.5, 64, 1) }, true},
		{"per-slot", func() Source { return opaque{NewBernoulli(4, 0.5, 64, 1)} }, false},
	}
	for _, w := range wraps {
		for _, in := range inners {
			if got := NewSpanFeed(w.wrap(in.mk()), 64).Batched(); got != in.ahead {
				t.Errorf("%s over a %s source: Batched() = %v, want %v", w.name, in.name, got, in.ahead)
			}
		}
	}
}

// TestWrappersExposeWhatTheyWrap guards the rule against the next wrapper:
// a function of the package that takes a Source and returns a source type
// without a source method would hide the source it reads from the feed,
// which would then read the wrapper ahead even over a closed-loop source.
func TestWrappersExposeWhatTheyWrap(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["traffic"].Files {
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatal("no package files parsed")
	}
	for _, bad := range opaqueWrappers(files) {
		t.Errorf("%s takes a Source and returns a source the feed cannot see through: give it a source() Source method", bad)
	}

	// The guard itself: a shell without source() is caught whether it is
	// returned as the Source interface or as its own type, and passes once
	// it reports what it wraps.
	const shell = `package traffic
type shell struct{ src Source }
func (s *shell) Arrivals(t cell.Time, dst []Arrival) []Arrival { return s.src.Arrivals(t, dst) }
func (s *shell) End() cell.Time { return s.src.End() }
func wrapIface(src Source) Source { s := &shell{src: src}; return s }
func wrapType(src Source) *shell { return &shell{src: src} }
`
	parse := func(src string) []*ast.File {
		f, err := parser.ParseFile(token.NewFileSet(), "shell.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return []*ast.File{f}
	}
	if got := opaqueWrappers(parse(shell)); !slices.Equal(got, []string{"wrapIface", "wrapType"}) {
		t.Errorf("guard flagged %v in the opaque shell, want [wrapIface wrapType]", got)
	}
	if got := opaqueWrappers(parse(shell + "func (s *shell) source() Source { return s.src }\n")); len(got) != 0 {
		t.Errorf("guard flagged %v once the shell reports its source", got)
	}
}

// opaqueWrappers names the functions in files that take a Source parameter
// and return a source type — one with Arrivals and End methods — that has
// no source method. A result declared as an interface is resolved through
// the function's return statements: a composite literal, its address, or a
// local variable defined as one.
func opaqueWrappers(files []*ast.File) []string {
	methods := map[string]map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				if name := typeName(fd.Recv.List[0].Type); name != "" {
					if methods[name] == nil {
						methods[name] = map[string]bool{}
					}
					methods[name][fd.Name.Name] = true
				}
			}
		}
	}
	opaque := func(name string) bool {
		m := methods[name]
		return m["Arrivals"] && m["End"] && !m["source"]
	}
	var bad []string
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil || !takesSource(fd.Type.Params) {
				continue
			}
			hit := false
			for i, res := range fd.Type.Results.List {
				if opaque(typeName(res.Type)) {
					hit = true
				}
				if id, ok := res.Type.(*ast.Ident); ok && (id.Name == "Source" || id.Name == "BatchSource") {
					for _, name := range returnedTypes(fd.Body, i) {
						hit = hit || opaque(name)
					}
				}
			}
			if hit {
				bad = append(bad, fd.Name.Name)
			}
		}
	}
	slices.Sort(bad)
	return bad
}

func takesSource(params *ast.FieldList) bool {
	for _, p := range params.List {
		if id, ok := p.Type.(*ast.Ident); ok && id.Name == "Source" {
			return true
		}
	}
	return false
}

// typeName is the local type an expression names: T, *T, T{...} or &T{...};
// "" for anything else.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.CompositeLit:
		return typeName(x.Type)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return typeName(x.X)
		}
	}
	return ""
}

// returnedTypes lists the local types body returns as its result i, where
// the returned expression is a literal or a variable defined as one.
func returnedTypes(body *ast.BlockStmt, i int) []string {
	defs := map[string]ast.Expr{}
	var names []string
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE && len(s.Lhs) == len(s.Rhs) {
				for k, l := range s.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						defs[id.Name] = s.Rhs[k]
					}
				}
			}
		case *ast.ReturnStmt:
			if i < len(s.Results) {
				e := s.Results[i]
				if id, ok := e.(*ast.Ident); ok && defs[id.Name] != nil {
					e = defs[id.Name]
				}
				if _, ok := e.(*ast.Ident); !ok {
					names = append(names, typeName(e))
				}
			}
		}
		return true
	})
	return names
}
