package geomds

// This file guards the reachability rule: an exported function or method under
// internal/ stays only while something outside tests reaches it. One that no
// binary, example or geobench reaches, directly or through code that is itself
// reached, and that implements no method of an interface, is either listed in
// seams with the reason it stays, or dead. The same rule holds memcache.Config's
// fields (TestCacheConfigIsSet).

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// seams are the exported functions and methods under internal/ that only tests
// reach, each with the tests that need it and why it stays: it lets a test
// observe other live behaviour, run fast, or substitute a part. A function
// whose only tests are tests of itself is not a seam; it is deleted.
var seams = map[string]string{
	"cloud.Deployment.Balance":             "TestDeploymentSpreadNodes, TestSpreadNodesBalanceProperty: SpreadNodes' placement is even",
	"cloud.Deployment.SiteLoad":            "TestDeploymentNodesAt: SpreadNodes' per-site node counts",
	"cloud.Deployment.Validate":            "TestDeploymentSpreadNodes, TestSpreadNodesBalanceProperty: SpreadNodes keeps the per-site index consistent",
	"cloud.Topology.Centrality":            "TestAzure4DCCentrality, TestCentralityBoundsProperty: the per-site average the two rankings below order by",
	"cloud.Topology.LeastCentralSite":      "TestAzure4DCCentrality: Azure4DC's links make South Central US the least central site, as §VI-B observes",
	"cloud.Topology.MostCentralSite":       "TestAzure4DCCentrality: Azure4DC's links make East US the most central site, as §VI-B observes",
	"cloud.Topology.Validate":              "TestAzure4DCValidates: Azure4DC's link matrix is symmetric, positive and local-first",
	"core.CentralizedService.Home":         "TestCentralizedCreateLookup, TestController: the central site option is honoured",
	"core.DecentralizedService.Home":       "TestDecentralizedPlacement and the DecReplicated tests: names are picked by the placer's home",
	"core.DecReplicatedService.FeedDriven": "TestDecReplicatedFeedPropagation, TestControllerFeedSync: the feed mode engaged",
	"core.Fabric.TotalEntries":             "TestDecentralizedPlacement, TestDecReplicatedHomeEqualsWriter: how many copies a strategy stored",
	"core.Propagator.Pending":              "the propagation and requeue tests: an exact, lock-held queue size the shared propagator_queue_depth gauge cannot give",
	"core.ReplicatedService.FeedDriven":    "TestReplicatedFeedSyncConverges, TestConfigFeedSync: the feed mode engaged",
	"core.WithCacheFactory":                "substitutes the store behind a site, for capacity and fault tests",
	"core.WithSites":                       "a fabric over a subset of the topology, for site arrival and departure tests",
	"dht.Distribution":                     "TestModuloPlacerUniformity, TestRingPlacerUniformity, TestRingMembershipChangeBounds: how evenly a placer spreads keys",
	"feed.WithResubscribeBackoff":          "timing: the combiner's reconnect delay",
	"limits.Limiter.Config":                "TestLimiterUpdateConfig: a reload takes effect",
	"limits.Limiter.Inflight":              "the Limiter admit and eviction tests: every admitted request is finished",
	"limits.Limiter.Tenants":               "TestLimiterInflightShedding, TestLimiterLRUEvictionWhenNoneIdle: the tenant table stays bounded",
	"limits.TokenBucket.Take":              "TestTokenBucketConcurrentTake, TestTokenBucketUnlimitedAndDeny: the bucket's arithmetic without a limiter",
	"memcache.Cache.Stats":                 "checkStore and the memcache tests: the store's item and byte accounting",
	"memcache.Cache.Stop":                  "fault injection: TestCentralizedSurvivesShardFailure and TestReplicatedAgentSiteFailureIsIsolated stop a site's cache",
	"memcache.Cache.Stopped":               "TestStop: the state Stop's fault injection leaves",
	"memcache.Item.Expired":                "TestItemIsRebuiltOnTheWayOut: an item read back carries its expiry",
	"metrics.Histogram.Count":              "TestReplicatedFeedSyncConverges, TestCapacityStoreBoundsConcurrency: how many samples live code observed",
	"metrics.Progress.Completed":           "TestEngineWithProgress, TestRunSyntheticCentralized: the engine records every completion",
	"metrics.Progress.DoneAt":              "TestProgressTimeline: completions at fixed offsets, so Timeline's percentiles are exact",
	"metrics.Recorder.Len":                 "TestRecorderConcurrent: no sample is lost by concurrent recorders",
	"metrics.TraceRing.Len":                "TestTraceRingWrapsAndOrders: the ring keeps its capacity when it wraps",
	"metrics.TraceRing.Total":              "TestTraceRingWrapsAndOrders: the ring counts the events it overwrote",
	"readcache.Cache.CachedLen":            "the readcache tests: the cache stays bounded, and the readcache_entries gauge matches it",
	"readcache.Cache.Stats":                "the readcache tests: hits, fills and invalidations",
	"registry.Instance.Storage":            "TestInstanceCloseLosslessRelaxedFsync: the log's sync count",
	"registry.Instance.Store":              "TestUndecodableStoredValueIsAnError: plants undecodable bytes under an instance",
	"registry.Router.DownShards":           "tests assert which breakers a tier has open",
	"registry.Router.MarkShardUp":          "fault injection: closes a breaker and starts the recovery a probe would",
	"registry.Router.Shards":               "tests assert a tier's shard IDs",
	"registry.Router.Wait":                 "tests await background re-sync sweeps",
	"registry.WithCASRetries":              "makes the Update retry budget small enough to exhaust in a test",
	"registry.WithRouterHealth":            "timing: breaker threshold and probe interval, so outage tests finish in milliseconds",
	"rpc.Server.Addr":                      "TestServerClose, TestBadOpRejected: dial a server that listens on port 0",
	"store.Durable.Compact":                "TestReplayIdempotence, TestConcurrentCheckpoints: a checkpoint at a chosen point",
	"store.Durable.Recovered":              "TestDurableRoundTrip and the group recovery tests: how many records a reopen replayed",
	"store.WithCompactEvery":               "timing: compaction after a handful of records instead of thousands",
	"workflow.Schedule.SiteLoad":           "TestRoundRobinScheduler, TestLocalitySchedulerSpreadsRoots: where a scheduler put the tasks",
	"workloads.JobCount":                   "TestBuzzFlowShape, TestMontageShape: the oracle for the generators' task counts",
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

// TestGobIsImportedByNoFile holds the end state of retiring gob: the wire and
// every stored value have hand-rolled encodings, and bytes of another format
// are refused on their first byte. Test files may still import encoding/gob to
// forge the bytes of earlier releases that must be refused.
func TestGobIsImportedByNoFile(t *testing.T) {
	for _, f := range parseNonTestFiles(t) {
		for _, imp := range f.ast.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob", f.path)
			}
		}
	}
}

// listedPackage is the part of `go list -json` the reachability guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Main bool }
}

// goList lists the packages of the module in dir and everything they import,
// each with its compiled export data. It needs no network: the root module has
// no requirements, and benchmark/ replaces its one with this directory.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Module", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdInterfaces are the standard library's interfaces whose methods count as
// reached on every type that implements them, as package path and name ("" is
// the universe).
var stdInterfaces = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"flag", "Value"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"sort", "Interface"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"net/http", "Handler"},
}

// reachedFunc is one exported function or method under internal/: where it is
// declared, and whether the reachability rule holds it reached.
type reachedFunc struct {
	pos     string
	reached bool
}

// reachability caches analyzeReachability's result for the tests that read it,
// which run one after another.
var reachability map[string]reachedFunc

// analyzeReachability finds every exported function and method under internal/,
// by the name seams uses, and whether it is reached. The roots are the
// functions that non-test code outside internal/ references — a binary, an
// example, geobench — and the methods of an interface, one of this module's or
// of stdInterfaces, that a type of either module implements. A function is
// reached when a root or a reached function references it outside its own
// declaration. The packages of both modules are type-checked from source in
// one universe, so a method of the same name on another type does not count,
// and a generic method counts through its origin. Types, variables and
// constants are out of scope: sentinel errors are the documented error
// contract.
func analyzeReachability(t *testing.T) map[string]reachedFunc {
	t.Helper()
	if reachability != nil {
		return reachability
	}
	const modulePrefix = "geomds/internal/"
	source := make(map[string]listedPackage) // import path -> a package of either module
	exports := make(map[string]string)       // import path -> export data, for the rest
	own := make(map[string]bool)             // the packages of this module
	var order []string                       // the packages of either module, in list order
	for i, pkgs := range [][]listedPackage{goList(t, "."), goList(t, "benchmark")} {
		for _, p := range pkgs {
			switch {
			case p.Module != nil && p.Module.Main:
				source[p.ImportPath] = p
				own[p.ImportPath] = i == 0
				order = append(order, p.ImportPath)
			case exports[p.ImportPath] == "":
				exports[p.ImportPath] = p.Export
			}
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	infos := make(map[string]*types.Info)
	parsed := make(map[string][]*ast.File)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p, ok := source[path]
		if !ok {
			return gc.Import(path)
		}
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path], infos[path], parsed[path] = pkg, info, files
		return pkg, nil
	}
	for _, path := range order {
		if _, err := imp.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	// Every exported function and method under internal/, by the name seams
	// uses: the package's path below internal/, the receiver's type name, and
	// the function's name.
	defined := make(map[*types.Func]string)
	for path, pkg := range checked {
		rel, ok := strings.CutPrefix(path, modulePrefix)
		if !ok {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					defined[obj] = rel + "." + name
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						defined[m] = rel + "." + name + "." + m.Name()
					}
				}
			}
		}
	}

	// roots collects the functions referenced by code that runs on its own
	// account: every declaration outside internal/ (a binary, an example,
	// geobench), and package-level variables and init functions. uses maps
	// each function of internal/ to the functions it references, other than
	// itself.
	var roots []*types.Func
	uses := make(map[*types.Func][]*types.Func)
	for path, files := range parsed {
		info := infos[path]
		for _, f := range files {
			for _, decl := range f.Decls {
				var from *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(path, modulePrefix) && fd.Name.Name != "init" {
					from = info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					switch {
					case !ok || fn.Origin() == from:
					case from == nil:
						roots = append(roots, fn.Origin())
					default:
						uses[from] = append(uses[from], fn.Origin())
					}
					return true
				})
			}
		}
	}

	var ifaces []*types.Interface
	var named []*types.Named
	for _, pkg := range checked {
		for _, name := range pkg.Scope().Names() {
			obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			n, ok := obj.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if it.IsMethodSet() && own[pkg.Path()] {
					ifaces = append(ifaces, it)
				}
				continue
			}
			named = append(named, n)
		}
	}
	for _, std := range stdInterfaces {
		scope := types.Universe
		if std[0] != "" {
			pkg, err := imp.Import(std[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		ifaces = append(ifaces, scope.Lookup(std[1]).Type().Underlying().(*types.Interface))
	}
	// errors.Is, As and Unwrap reach a wrapped error through an interface
	// package errors does not name.
	result := types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type()))
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, result, false))
	ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	for _, n := range named {
		ptr := types.NewPointer(n)
		methods := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := methods.Lookup(m.Pkg(), m.Name()); sel != nil {
					roots = append(roots, sel.Obj().(*types.Func).Origin())
				}
			}
		}
	}

	// A function is reached from a root through references made by reached
	// functions only: what only dead code calls is dead too.
	reached := make(map[*types.Func]bool)
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !reached[fn] {
			reached[fn] = true
			roots = append(roots, uses[fn]...)
		}
	}

	funcs := make(map[string]reachedFunc, len(defined))
	for fn, name := range defined {
		funcs[name] = reachedFunc{pos: fset.Position(fn.Pos()).String(), reached: reached[fn]}
	}
	reachability = funcs
	return funcs
}

// checkReachable holds the exported functions and methods that part selects,
// by their seams name, to the reachability rule: each is reached, or it is a
// seam listed with its reason, or it is deleted.
func checkReachable(t *testing.T, part func(name string) bool) {
	funcs := analyzeReachability(t)
	var unreached []string
	for name, fn := range funcs {
		if !part(name) {
			continue
		}
		_, seam := seams[name]
		switch {
		case !fn.reached && !seam:
			unreached = append(unreached, name+" ("+fn.pos+")")
		case fn.reached && seam:
			t.Errorf("%s is listed in seams and is reachable: drop it from the list", name)
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		t.Errorf("%s is reached from no binary, example or geobench, and implements no interface method: call it from live code, list it in seams with the test that needs it, or delete it", name)
	}
	for name := range seams {
		if _, ok := funcs[name]; part(name) && !ok {
			t.Errorf("seams lists %s, which is not defined", name)
		}
	}
}

// isOption reports whether name is a package-level With* option.
func isOption(name string) bool {
	pkg, fn, _ := strings.Cut(name, ".")
	return pkg != "" && !strings.Contains(fn, ".") && strings.HasPrefix(fn, "With")
}

// isRouterMethod reports whether name is a method of *registry.Router.
func isRouterMethod(name string) bool {
	return strings.HasPrefix(name, "registry.Router.")
}

// TestOptionsAreReachable holds every exported With* option under internal/ to
// the reachability rule.
func TestOptionsAreReachable(t *testing.T) {
	checkReachable(t, isOption)
}

// TestRouterMethodsAreReachable holds the exported methods of *registry.Router
// to the reachability rule.
func TestRouterMethodsAreReachable(t *testing.T) {
	checkReachable(t, isRouterMethod)
}

// TestExportedFuncsAreReachable holds every other exported function and method
// under internal/ to the reachability rule.
func TestExportedFuncsAreReachable(t *testing.T) {
	checkReachable(t, func(name string) bool { return !isOption(name) && !isRouterMethod(name) })
}
