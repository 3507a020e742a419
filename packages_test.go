package mcnet

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoDeadInternalPackages fails when an internal package has no non-test
// importer anywhere in the module (the root, cmd/, internal/, examples/):
// code that no production path reaches is deleted rather than kept. A
// package whose only non-test file is doc.go (internal/bench, which holds
// benchmarks only) is exempt.
func TestNoDeadInternalPackages(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]string{} // package import path → non-test file names
	importers := map[string]int{}  // internal import path → importing files outside it
	scan := func(p string) error {
		name := filepath.Base(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		pkg := path.Join("mcnet", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], name)
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(ip, "mcnet/internal/") && ip != pkg {
				importers[ip]++
			}
		}
		return nil
	}

	root, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range root {
		if !e.IsDir() {
			if err := scan(e.Name()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, dir := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			return scan(p)
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var pkgs []string
	for pkg := range files {
		if strings.HasPrefix(pkg, "mcnet/internal/") {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages; is the test running from the module root?")
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		if names := files[pkg]; len(names) == 1 && names[0] == "doc.go" {
			continue
		}
		if importers[pkg] == 0 {
			t.Errorf("%s has no non-test importer: delete it or use it", pkg)
		}
	}
}
