package edgetune

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsMatchNamesTests holds EXPERIMENTS.md's "Match" column
// to the tests that check it: every ✔ cell names at least one test in
// backticks, as `TestName` or `pkg.TestName`, and each named test is a
// Test function declared in a _test.go file of the tree (of package
// pkg's directory when qualified). A claim of a match that no test
// checks, or that names a test since renamed or deleted, fails here.
func TestExperimentsMatchNamesTests(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}

	// Every Test function in the tree, with the directories declaring it.
	declared := map[string][]string{}
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(t \*testing\.T\)`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = append(declared[string(m[1])], filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	named := regexp.MustCompile("`(?:(\\w+)\\.)?(Test\\w+)`")
	checked := 0
	for i, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(strings.Trim(line, " |"), " | ")
		if !strings.HasPrefix(line, "|") || len(cells) < 2 {
			continue
		}
		match := cells[len(cells)-1]
		if !strings.Contains(match, "✔") {
			continue
		}
		checked++
		refs := named.FindAllStringSubmatch(match, -1)
		if len(refs) == 0 {
			t.Errorf("EXPERIMENTS.md:%d: %s is marked %q but names no test", i+1, cells[0], match)
		}
		for _, ref := range refs {
			pkg, name := ref[1], ref[2]
			found := false
			for _, dir := range declared[name] {
				found = found || pkg == "" || filepath.Base(dir) == pkg
			}
			if !found {
				t.Errorf("EXPERIMENTS.md:%d: %s names %s, which no _test.go file declares", i+1, cells[0], strings.Trim(ref[0], "`"))
			}
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md has no ✔ cell: the table moved or its marks changed")
	}
}
