package edgetune

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// allowlistPath lists the exported functions and methods that only tests
// call, one "pkg.Recv.Name  reason" line each. The gate fails on an entry
// missing from it and on a line nothing matches, so it can only shrink.
const allowlistPath = "testdata/test_only_exports.txt"

// interfaceMethods are the method names a type declares to satisfy a
// standard interface; the call sits in the standard library, not the tree.
var interfaceMethods = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "String": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Len": true, "Less": true,
	"Swap": true, "ServeHTTP": true, "Read": true, "Write": true, "Close": true,
}

// TestNoTestOnlyExports keeps code only tests call out of the product
// tree. It lists every exported function and method declared in a
// non-test file outside the public API (the root package), cmd/,
// examples/ and internal/testutil whose name no non-test file of the
// module or of bench/ names outside the declaration itself, and holds
// that list to the allowlist. The name rule is conservative: a
// same-named identifier anywhere counts as a call.
func TestNoTestOnlyExports(t *testing.T) {
	t.Run("tree", func(t *testing.T) {
		found, err := testOnlyExports(os.DirFS("."))
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(allowlistPath)
		if err != nil {
			t.Fatal(err)
		}
		unlisted, stale := compareAllowlist(found, parseAllowlist(data))
		for _, name := range unlisted {
			t.Errorf("%s is exported but only tests call it: move it into an export_test.go or the test that uses it, or delete it", name)
		}
		for _, name := range stale {
			t.Errorf("%s: the %s line matches no test-only export; delete the line", allowlistPath, name)
		}
	})
	t.Run("planted", func(t *testing.T) {
		tree := fstest.MapFS{
			"internal/p/p.go":      {Data: []byte("package p\n\nfunc Used() {}\n\nfunc Planted() { Planted() }\n\nfunc (T) String() string { return \"\" }\n\ntype T struct{}\n")},
			"internal/p/p_test.go": {Data: []byte("package p\n\nfunc f() { Planted() }\n")},
			"internal/q/q.go":      {Data: []byte("package q\n\nimport \"m/internal/p\"\n\nfunc G() { p.Used() }\n")},
			"main.go":              {Data: []byte("package m\n\nimport \"m/internal/q\"\n\nfunc Run() { q.G() }\n")},
			"bench/out/x.go":       {Data: []byte("package out\n\nfunc h() { Planted() }\n")},
		}
		found, err := testOnlyExports(tree)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"p.Planted"}; !slices.Equal(found, want) {
			t.Fatalf("found %v, want %v", found, want)
		}
		unlisted, stale := compareAllowlist(found, parseAllowlist(nil))
		if !slices.Equal(unlisted, []string{"p.Planted"}) || len(stale) != 0 {
			t.Fatalf("unlisted %v stale %v: the planted export must fail the gate", unlisted, stale)
		}
	})
	t.Run("stale", func(t *testing.T) {
		allow := parseAllowlist([]byte("# comment\np.Gone  no longer exported\np.Kept  a test in q calls it\n"))
		unlisted, stale := compareAllowlist([]string{"p.Kept"}, allow)
		if len(unlisted) != 0 || !slices.Equal(stale, []string{"p.Gone"}) {
			t.Fatalf("unlisted %v stale %v: the stale line must fail the gate", unlisted, stale)
		}
	})
}

// testOnlyExports walks every non-test .go file of tree (skipping
// bench/out/) and returns, sorted, the "pkg.Name" or "pkg.Recv.Name" of
// each exported declaration in scope that nothing else names.
func testOnlyExports(tree fs.FS) ([]string, error) {
	type decl struct {
		key, name  string
		file       string
		start, end token.Pos
	}
	var decls []decl
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	err := fs.WalkDir(tree, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench/out" || p == "testdata" || strings.HasSuffix(p, "/testdata") || strings.HasPrefix(d.Name(), ".") && p != "." {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(tree, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[p] = f
		if !declScope(path.Dir(p)) {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				if interfaceMethods[fn.Name.Name] {
					continue
				}
				key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, p, fn.Pos(), fn.End()})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Every identifier that names something, by name, minus the names
	// function declarations give themselves: a declaration is not a call.
	type use struct {
		file string
		pos  token.Pos
	}
	uses := map[string][]use{}
	for p, f := range files {
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name] = append(uses[id.Name], use{p, id.Pos()})
			}
			return true
		})
	}
	var found []string
	for _, d := range decls {
		called := false
		for _, u := range uses[d.name] {
			if u.file != d.file || u.pos < d.start || u.pos >= d.end {
				called = true
				break
			}
		}
		if !called {
			found = append(found, d.key)
		}
	}
	slices.Sort(found)
	return found, nil
}

// declScope reports whether exported declarations in dir are held to the
// gate: the public API, the commands, the examples, the test helpers and
// the separate bench/ module are not.
func declScope(dir string) bool {
	if dir == "." {
		return false
	}
	for _, prefix := range []string{"cmd", "examples", "internal/testutil", "bench"} {
		if dir == prefix || strings.HasPrefix(dir, prefix+"/") {
			return false
		}
	}
	return true
}

// recvName is the type name of a method receiver: T, *T, T[K] or *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// parseAllowlist reads "key  reason" lines, skipping blanks and # comments.
func parseAllowlist(data []byte) map[string]bool {
	allow := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
			allow[fields[0]] = true
		}
	}
	return allow
}

// compareAllowlist returns, sorted, the found entries the allowlist lacks
// and the allowlist lines nothing found matches.
func compareAllowlist(found []string, allow map[string]bool) (unlisted, stale []string) {
	seen := map[string]bool{}
	for _, name := range found {
		seen[name] = true
		if !allow[name] {
			unlisted = append(unlisted, name)
		}
	}
	for name := range allow {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(stale)
	return unlisted, stale
}
