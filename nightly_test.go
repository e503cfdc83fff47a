package geomds

// This file keeps the nightly workflow honest: `go test -run` with a pattern
// that matches no test runs nothing and passes, so a renamed or deleted test
// would silently drop out of the nightly -race loops.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFlagRe matches a step's -run pattern.
var runFlagRe = regexp.MustCompile(`-run '([^']*)'`)

// testPrefixRe matches a flat test-name prefix: no regexp syntax at all.
var testPrefixRe = regexp.MustCompile(`^Test\w+$`)

// testFuncs returns the Test functions the package in dir declares.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// TestNightlyPatternsNameTests holds every -run pattern of the nightly
// workflow to a flat |-list of test-name prefixes, each of which prefixes at
// least one Test function declared in the packages its step runs.
func TestNightlyPatternsNameTests(t *testing.T) {
	body, err := os.ReadFile(".github/workflows/nightly.yml")
	if err != nil {
		t.Fatal(err)
	}
	patterns := 0
	for _, step := range strings.Split(string(body), "- name: ")[1:] {
		m := runFlagRe.FindStringSubmatchIndex(step)
		if m == nil {
			continue
		}
		patterns++
		title, _, _ := strings.Cut(step, "\n")
		var tests []string
		for _, field := range strings.Fields(step[m[1]:]) {
			if strings.HasPrefix(field, "./") {
				tests = append(tests, testFuncs(t, field)...)
			}
		}
		for _, alt := range strings.Split(step[m[2]:m[3]], "|") {
			if !testPrefixRe.MatchString(alt) {
				t.Errorf("step %q: -run alternative %q is not a plain test-name prefix", title, alt)
				continue
			}
			named := false
			for _, test := range tests {
				named = named || strings.HasPrefix(test, alt)
			}
			if !named {
				t.Errorf("step %q: -run alternative %q names no test in the step's packages", title, alt)
			}
		}
	}
	if patterns == 0 {
		t.Fatal("no -run pattern found in the nightly workflow")
	}
}
