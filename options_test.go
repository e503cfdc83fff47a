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

// exempt are the options only tests set, and why each stays: each is a seam a
// test needs to run fast or to substitute a part.
var exempt = map[string]string{
	"registry.WithRouterHealth":   "timing: breaker threshold and probe interval, so outage tests finish in milliseconds",
	"registry.WithCASRetries":     "makes the Update retry budget small enough to exhaust in a test",
	"store.WithCompactEvery":      "timing: compaction after a handful of records instead of thousands",
	"core.WithSites":              "a fabric over a subset of the topology, for site arrival and departure tests",
	"core.WithCacheFactory":       "substitutes the store behind a site, for capacity and fault tests",
	"feed.WithResubscribeBackoff": "timing: the combiner's reconnect delay",
	"feed.WithFailureThreshold":   "timing: how many failed resubscribes mark a source down",
	"feed.WithHealthFunc":         "observes the combiner's up/down transitions",
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

// configSeams are the memcache.Config fields only tests set, and why each
// stays.
var configSeams = map[string]string{
	"Shards": "one shard forces evacuation and index growth in shard_test.go",
	"Now":    "the expiry clock, so TTL tests step time instead of sleeping",
}

// TestCacheConfigIsSet holds memcache.Config to the options' rule: a field
// stays only while non-test code outside memcache sets it — as a key of a
// memcache.Config literal, or by assignment to a variable or parameter of that
// type — or it is a seam listed in configSeams.
func TestCacheConfigIsSet(t *testing.T) {
	const cachePkg = "geomds/internal/memcache"
	files := parseNonTestFiles(t)
	set := make(map[string]int) // field -> places non-test code sets it
	for _, f := range files {
		if f.dir != "internal/memcache" {
			continue
		}
		for _, decl := range f.ast.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name == "Config" {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							set[name.Name] = 0
						}
					}
				}
			}
		}
	}
	if len(set) == 0 {
		t.Fatal("memcache.Config not found")
	}

	for _, f := range files {
		local := ""
		for _, imp := range f.ast.Imports {
			if strings.Trim(imp.Path.Value, `"`) == cachePkg {
				local = "memcache"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		isConfig := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && x.Name == local && sel.Sel.Name == "Config"
		}
		vars := make(map[string]bool) // names declared as a memcache.Config
		declare := func(names []*ast.Ident) {
			for _, name := range names {
				vars[name.Name] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isConfig(n.Type) {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set[kv.Key.(*ast.Ident).Name]++
						}
					}
				}
			case *ast.ValueSpec:
				if isConfig(n.Type) {
					declare(n.Names)
				}
			case *ast.Field:
				if isConfig(n.Type) {
					declare(n.Names)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					switch lhs := lhs.(type) {
					case *ast.Ident:
						if cl, ok := n.Rhs[min(i, len(n.Rhs)-1)].(*ast.CompositeLit); ok && isConfig(cl.Type) {
							vars[lhs.Name] = true
						}
					case *ast.SelectorExpr:
						if x, ok := lhs.X.(*ast.Ident); ok && vars[x.Name] {
							if _, field := set[lhs.Sel.Name]; field {
								set[lhs.Sel.Name]++
							}
						}
					}
				}
			}
			return true
		})
	}

	var fields []string
	for field := range set {
		fields = append(fields, field)
	}
	sort.Strings(fields)
	for _, field := range fields {
		_, seam := configSeams[field]
		switch {
		case set[field] == 0 && !seam:
			t.Errorf("memcache.Config.%s is set by no non-test code outside memcache: wire it to a caller, list it in configSeams with its reason, or delete it", field)
		case set[field] > 0 && seam:
			t.Errorf("memcache.Config.%s is listed in configSeams and set by non-test code: drop it from the list", field)
		}
	}
	for field := range configSeams {
		if _, ok := set[field]; !ok {
			t.Errorf("configSeams lists %s, which memcache.Config does not have", field)
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
