package geomds

// This file guards one rule of the registry stack: an option stays only while
// something outside tests can turn it on. An exported With* function that
// non-test code mentions nowhere but in its own declaration is either listed
// below with the reason it stays, or dead.

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

// optionPackages are the packages whose options the rule covers.
var optionPackages = []string{"registry", "rpc", "core", "store", "feed", "memcache", "readcache", "limits", "site"}

// exempt are the options only tests set, and why each stays: all but the last
// are seams a test needs to run fast or to substitute a part.
var exempt = map[string]string{
	"registry.WithRouterHealth":   "timing: breaker threshold and probe interval, so outage tests finish in milliseconds",
	"registry.WithCASRetries":     "makes the Update retry budget small enough to exhaust in a test",
	"store.WithCompactEvery":      "timing: compaction after a handful of records instead of thousands",
	"core.WithSites":              "a fabric over a subset of the topology, for site arrival and departure tests",
	"core.WithCacheFactory":       "substitutes the store behind a site, for capacity and fault tests",
	"feed.WithResubscribeBackoff": "timing: the combiner's reconnect delay",
	"feed.WithFailureThreshold":   "timing: how many failed resubscribes mark a source down",
	"feed.WithHealthFunc":         "observes the combiner's up/down transitions",
	"core.WithTenant":             "not a seam and not reachable: found when this test was written, left for ROADMAP item 3 to wire to wfrun or delete",
}

// goFile is one parsed non-test file and the package directory it is in.
type goFile struct {
	path string
	dir  string
	ast  *ast.File
}

func parseNonTestFiles(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
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
		files = append(files, goFile{path: path, dir: filepath.ToSlash(filepath.Dir(path)), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOptionsAreReachable fails on an exported With* function of the registry
// stack that only its own declaration and tests mention, unless it is exempt.
func TestOptionsAreReachable(t *testing.T) {
	covered := make(map[string]string) // package directory -> package name
	for _, pkg := range optionPackages {
		covered["internal/"+pkg] = pkg
	}
	files := parseNonTestFiles(t)

	defined := make(map[string]string) // "pkg.WithX" -> defining file
	mentions := make(map[string]int)   // "pkg.WithX" -> mentions, its declaration's among them
	for _, f := range files {
		own := covered[f.dir]
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && own != "" && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
				defined[own+"."+fn.Name.Name] = f.path
			}
		}
		// The names this file imports covered packages under.
		imported := make(map[string]string)
		for _, imp := range f.ast.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			pkg, ok := strings.CutPrefix(path, "geomds/internal/")
			if !ok || covered["internal/"+pkg] == "" {
				continue
			}
			local := pkg
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imported[local] = pkg
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg := imported[x.Name]; pkg != "" {
						mentions[pkg+"."+n.Sel.Name]++
					}
					return false
				}
			case *ast.Ident:
				if own != "" {
					mentions[own+"."+n.Name]++
				}
			}
			return true
		})
	}

	var options []string
	for option := range defined {
		options = append(options, option)
	}
	sort.Strings(options)
	for _, option := range options {
		reachable := mentions[option] > 1
		_, listed := exempt[option]
		switch {
		case !reachable && !listed:
			t.Errorf("%s (%s) is mentioned by no non-test code but its own declaration: wire it to a binary, a site.Config field or an experiment, list it in exempt with its reason, or delete it", option, defined[option])
		case reachable && listed:
			t.Errorf("%s is listed in exempt and is reachable: drop it from the list", option)
		}
	}
	for option := range exempt {
		if defined[option] == "" {
			t.Errorf("exempt lists %s, which is not defined", option)
		}
	}
}

// TestGobIsImportedByOneFile holds the end state of retiring gob: the wire
// and every stored value have hand-rolled encodings, and encoding/gob survives
// in one decode-only file that reads what older releases left in data
// directories.
func TestGobIsImportedByOneFile(t *testing.T) {
	const keeper = "internal/registry/codec_gob.go"
	kept := false
	for _, f := range parseNonTestFiles(t) {
		for _, imp := range f.ast.Imports {
			if imp.Path.Value != `"encoding/gob"` {
				continue
			}
			if filepath.ToSlash(f.path) == keeper {
				kept = true
			} else {
				t.Errorf("%s imports encoding/gob; only %s may", f.path, keeper)
			}
		}
	}
	if !kept {
		t.Errorf("%s no longer imports encoding/gob: delete this test with it", keeper)
	}
}
