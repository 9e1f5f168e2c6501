package edgetune

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// allowlistPath lists the functions and methods in scope that no product
// binary links, one "pkg.Recv.Name  reason" line each. The gate fails on
// an entry missing from it and on a line nothing matches, so it can only
// shrink.
const allowlistPath = "testdata/test_only_exports.txt"

// binaries names the main packages one module directory builds.
type binaries struct {
	dir  string   // the module's directory, relative to the census root
	pkgs []string // package patterns to build there
}

// productBinaries are every binary the tree ships: the commands, the
// examples and the separate bench/ module's benchmark.
var productBinaries = []binaries{
	{".", []string{"./cmd/...", "./examples/..."}},
	{"bench", []string{"."}},
}

// TestNoTestOnlyExports keeps code only tests call out of the product
// tree. It builds every product binary with the module's inlining off
// and lists every non-generic function and method declared in a non-test
// file outside the public API (the root package), cmd/, examples/,
// internal/testutil and bench/ whose symbol no binary holds: the linker
// decides what is called, so a same-named identifier elsewhere no longer
// counts as a call. That list is held to the allowlist. Its blind spots
// are generic code, whose symbols carry their instantiations, and methods
// the linker keeps because a type that has them is converted to an
// interface whose method of that name some binary calls.
func TestNoTestOnlyExports(t *testing.T) {
	t.Run("tree", func(t *testing.T) {
		found, err := unlinkedFuncs(".", "edgetune", t.TempDir(), productBinaries)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(allowlistPath)
		if err != nil {
			t.Fatal(err)
		}
		unlisted, stale := compareAllowlist(found, parseAllowlist(data))
		for _, name := range unlisted {
			t.Errorf("%s is linked by no product binary: move it into an export_test.go or the test that uses it, or delete it", name)
		}
		for _, name := range stale {
			t.Errorf("%s: the %s line matches no unlinked function; delete the line", allowlistPath, name)
		}
	})
	t.Run("planted", func(t *testing.T) {
		found, err := unlinkedFuncs("testdata/linkcensus", "m", t.TempDir(), []binaries{{".", []string{"."}}})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"p.Mean", "p.Unreached", "p.unreached"}
		if !slices.Equal(found, want) {
			t.Fatalf("found %v, want %v", found, want)
		}
		unlisted, stale := compareAllowlist(found, parseAllowlist(nil))
		if !slices.Equal(unlisted, want) || len(stale) != 0 {
			t.Fatalf("unlisted %v stale %v: the planted functions must fail the gate", unlisted, stale)
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

// unlinkedFuncs builds bins into out with inlining off for the packages
// of module mod, rooted at root (so a called function keeps its own
// symbol), and returns, sorted, the "pkg.Name" or "pkg.Recv.Name" of each
// non-generic function and method declared in a non-test file of root in
// scope whose symbol none of the binaries holds.
func unlinkedFuncs(root, mod, out string, bins []binaries) ([]string, error) {
	linked := map[string]bool{}
	for i, b := range bins {
		dir := filepath.Join(out, strconv.Itoa(i)) + string(filepath.Separator)
		args := append([]string{"-C", filepath.Join(root, b.dir), "build", "-gcflags=" + mod + "/...=-l", "-o", dir}, b.pkgs...)
		if err := goCmd(nil, args...); err != nil {
			return nil, err
		}
		exes, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, exe := range exes {
			var nm bytes.Buffer
			if err := goCmd(&nm, "tool", "nm", filepath.Join(dir, exe.Name())); err != nil {
				return nil, err
			}
			// "addr type symbol"; a symbol may hold spaces (generic shapes).
			for _, line := range strings.Split(nm.String(), "\n") {
				f := strings.SplitN(strings.TrimSpace(line), " ", 3)
				if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
					linked[f[2]] = true
				}
			}
		}
	}

	var found []string
	fset := token.NewFileSet()
	err := fs.WalkDir(os.DirFS(root), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench/out" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != "." {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") || !declScope(path.Dir(p)) {
			return nil
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, p), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := mod + "/" + path.Dir(p) + "."
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || fn.Type.TypeParams != nil {
				continue
			}
			key, syms := f.Name.Name+"."+fn.Name.Name, []string{pkg + fn.Name.Name}
			if fn.Recv != nil {
				recv, generic := recvName(fn.Recv.List[0].Type)
				if generic {
					continue
				}
				key = f.Name.Name + "." + recv + "." + fn.Name.Name
				syms = []string{pkg + recv + "." + fn.Name.Name, pkg + "(*" + recv + ")." + fn.Name.Name}
			}
			if !slices.ContainsFunc(syms, func(s string) bool { return linked[s] }) {
				found = append(found, key)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(found)
	return found, nil
}

// goCmd runs the go command, writing its standard output to stdout
// (nil drops it).
func goCmd(stdout *bytes.Buffer, args ...string) error {
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	if stdout != nil {
		cmd.Stdout = stdout
	}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return nil
}

// declScope reports whether declarations in dir are held to the gate:
// the public API, the commands, the examples, the test helpers and the
// separate bench/ module are not.
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

// recvName is the type name of a method receiver — T, *T, T[K] or *T[K]
// — and whether the type is generic.
func recvName(e ast.Expr) (string, bool) {
	generic := false
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e, generic = x.X, true
		case *ast.IndexListExpr:
			e, generic = x.X, true
		case *ast.Ident:
			return x.Name, generic
		default:
			return "?", generic
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
