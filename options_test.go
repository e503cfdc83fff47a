package geomds

// This file guards the reachability rule: a function or method under internal/,
// exported or not, and a method an interface there declares, stays only while
// something outside tests reaches it. A binary, an example or geobench reaches
// it directly, or through code that is itself reached; a call through an
// interface reaches the interface's method and every implementation of it, and
// implementing an interface reaches nothing by itself. One that nothing
// reaches is either listed in seams with the reason it stays, or dead. The
// same rule holds the fields of every exported config struct under internal/
// (TestConfigFieldsAreSet).

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

// seams are the functions and methods under internal/ that only tests reach,
// each with the tests that need it and why it stays: it lets a test observe
// other live behaviour, run fast, or substitute a part. What a seam calls
// counts as reached. A function whose only tests are tests of itself is not a
// seam; it is deleted.
var seams = map[string]string{
	"cloud.Deployment.Balance":        "TestDeploymentSpreadNodes, TestSpreadNodesBalanceProperty: SpreadNodes' placement is even",
	"cloud.Deployment.SiteLoad":       "TestDeploymentNodesAt: SpreadNodes' per-site node counts",
	"cloud.Deployment.Validate":       "TestDeploymentSpreadNodes, TestSpreadNodesBalanceProperty: SpreadNodes keeps the per-site index consistent",
	"cloud.Topology.Centrality":       "TestAzure4DCCentrality, TestCentralityBoundsProperty: the per-site average the two rankings below order by",
	"cloud.Topology.LeastCentralSite": "TestAzure4DCCentrality: Azure4DC's links make South Central US the least central site, as §VI-B observes",
	"cloud.Topology.MostCentralSite":  "TestAzure4DCCentrality: Azure4DC's links make East US the most central site, as §VI-B observes",
	"cloud.Topology.Validate":         "TestAzure4DCValidates: Azure4DC's link matrix is symmetric, positive and local-first",
	"core.CentralizedService.Home":    "TestCentralizedCreateLookup, TestController: the central site option is honoured",
	"core.DecentralizedService.Home":  "TestDecentralizedPlacement and the DecReplicated tests: names are picked by the placer's home",
	"core.Fabric.TotalEntries":        "TestDecentralizedPlacement, TestDecReplicatedHomeEqualsWriter: how many copies a strategy stored",
	"core.Propagator.Pending":         "the propagation and requeue tests: an exact, lock-held queue size the shared propagator_queue_depth gauge cannot give",
	"core.WithCacheFactory":           "substitutes the store behind a site, for capacity and fault tests",
	"core.WithSites":                  "a fabric over a subset of the topology, for site arrival and departure tests",
	"dht.Distribution":                "TestModuloPlacerUniformity, TestRingPlacerUniformity, TestRingMembershipChangeBounds: how evenly a placer spreads keys",
	"feed.Subscription.Err":           "TestSlowSubscriberDroppedWithLagged, TestLogCloseEndsSubscriptions: why the log ended a subscription, lagged or closed",
	"feed.WithCombinerBuffer":         "TestCombinerCancelledMidEventDeliversAtMostOnce, TestCombinerStreamStateBracketsEveryGap: a one-event output buffer blocks the combiner mid-stream",
	"feed.WithResubscribeBackoff":     "timing: the combiner's reconnect delay",
	"limits.Limiter.Config":           "TestLimiterUpdateConfig: a reload takes effect",
	"limits.Limiter.Inflight":         "the Limiter admit and eviction tests: every admitted request is finished",
	"limits.Limiter.Tenants":          "TestLimiterInflightShedding, TestLimiterLRUEvictionWhenNoneIdle: the tenant table stays bounded",
	"limits.TokenBucket.Take":         "TestTokenBucketConcurrentTake, TestTokenBucketUnlimitedAndDeny: the bucket's arithmetic without a limiter",
	"memcache.Cache.Stats":            "checkStore and the memcache tests: the store's item and byte accounting",
	"memcache.Cache.Stop":             "fault injection: TestCentralizedSurvivesShardFailure and TestReplicatedAgentSiteFailureIsIsolated stop a site's cache",
	"metrics.Histogram.Count":         "TestCapacityStoreBoundsConcurrency: how many samples live code observed",
	"metrics.Progress.Completed":      "TestRunSyntheticCentralized: the synthetic run records every completion",
	"metrics.Progress.DoneAt":         "TestProgressTimeline: completions at fixed offsets, so Timeline's percentiles are exact",
	"metrics.Recorder.Len":            "TestRecorderConcurrent: no sample is lost by concurrent recorders",
	"metrics.TraceRing.Len":           "TestTraceRingWrapsAndOrders: the ring keeps its capacity when it wraps",
	"metrics.TraceRing.Total":         "TestTraceRingWrapsAndOrders: the ring counts the events it overwrote",
	"readcache.Cache.CachedLen":       "the readcache tests: the cache stays bounded, and the readcache_entries gauge matches it",
	"readcache.Cache.Stats":           "the readcache tests: hits, fills and invalidations",
	"registry.Instance.Storage":       "TestInstanceCloseLosslessRelaxedFsync: the log's sync count",
	"registry.Instance.Store":         "TestUndecodableStoredValueIsAnError: plants undecodable bytes under an instance",
	"registry.Router.DownShards":      "tests assert which breakers a tier has open",
	"registry.Router.MarkShardUp":     "fault injection: closes a breaker and starts the recovery a probe would",
	"registry.Router.Replication":     "TestBuild, TestStrategiesOverReplicatedShardedFabric: the replication factor a site was built with",
	"registry.Router.Shards":          "tests assert a tier's shard IDs",
	"registry.Router.Wait":            "tests await background re-sync sweeps",
	"registry.WithRouterHealth":       "timing: breaker threshold and probe interval, so outage tests finish in milliseconds",
	"rpc.Server.Addr":                 "TestServerClose, TestBadOpRejected: dial a server that listens on port 0",
	"store.Durable.Compact":           "TestReplayIdempotence, TestConcurrentCheckpoints: a checkpoint at a chosen point",
	"store.Durable.Recovered":         "TestDurableRoundTrip and the group recovery tests: how many records a reopen replayed",
	"store.WithCompactEvery":          "timing: compaction after a handful of records instead of thousands",
	"workflow.Schedule.SiteLoad":      "TestRoundRobinScheduler, TestLocalitySchedulerSpreadsRoots: where a scheduler put the tasks",
	"workloads.JobCount":              "TestBuzzFlowShape, TestMontageShape: the oracle for the generators' task counts",
}

// goFile is one parsed file.
type goFile struct {
	path string
	ast  *ast.File
}

// parseGoFiles parses the module's test files, or its other Go files, outside
// hidden and testdata directories; benchmark/ is included.
func parseGoFiles(t *testing.T, tests bool) []goFile {
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{path: path, ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestGobIsImportedByNoFile holds the end state of retiring gob: the wire and
// every stored value have hand-rolled encodings, and bytes of another format
// are refused on their first byte. Test files may still import encoding/gob to
// forge the bytes of earlier releases that must be refused.
func TestGobIsImportedByNoFile(t *testing.T) {
	for _, f := range parseGoFiles(t, false) {
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

// reachedFunc is one function or method under internal/: where it is
// declared, whether live code reaches it, and whether a seam does.
type reachedFunc struct {
	pos          string
	reached      bool
	reachedSeams bool
}

// universe holds the packages of both modules, type-checked from source in
// one universe: a binary, an example and geobench see the same types.Objects
// as the internal/ packages they use.
type universe struct {
	fset    *token.FileSet
	imp     types.Importer
	checked map[string]*types.Package // import path -> package of either module
	infos   map[string]*types.Info
	parsed  map[string][]*ast.File // import path -> its non-test files
}

// modulePrefix is the import path prefix of the packages the guards hold.
const modulePrefix = "geomds/internal/"

// loaded caches loadUniverse's result for the tests that read it, which run
// one after another.
var loaded *universe

// loadUniverse lists both modules and type-checks their packages from source;
// the rest of the build comes from its export data.
func loadUniverse(t *testing.T) *universe {
	t.Helper()
	if loaded != nil {
		return loaded
	}
	source := make(map[string]listedPackage) // import path -> a package of either module
	exports := make(map[string]string)       // import path -> export data, for the rest
	u := &universe{
		fset:    token.NewFileSet(),
		checked: make(map[string]*types.Package),
		infos:   make(map[string]*types.Info),
		parsed:  make(map[string][]*ast.File),
	}
	var order []string // the packages of either module, in list order
	for _, pkgs := range [][]listedPackage{goList(t, "."), goList(t, "benchmark")} {
		for _, p := range pkgs {
			switch {
			case p.Module != nil && p.Module.Main:
				source[p.ImportPath] = p
				order = append(order, p.ImportPath)
			case exports[p.ImportPath] == "":
				exports[p.ImportPath] = p.Export
			}
		}
	}

	gc := importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p, ok := source[path]
		if !ok {
			return gc.Import(path)
		}
		if pkg := u.checked[path]; pkg != nil {
			return pkg, nil
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		pkg, err := (&types.Config{Importer: imp}).Check(path, u.fset, files, info)
		if err != nil {
			return nil, err
		}
		u.checked[path], u.infos[path], u.parsed[path] = pkg, info, files
		return pkg, nil
	}
	u.imp = imp
	for _, path := range order {
		if _, err := imp.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	loaded = u
	return u
}

// reachability caches analyzeReachability's result for the tests that read it,
// which run one after another.
var reachability map[string]reachedFunc

// analyzeReachability finds every function and method under internal/,
// exported or not, and every method its interfaces declare, by the name seams
// uses, and whether it is reached. The roots are the functions that non-test
// code outside internal/ references — a binary, an example, geobench — or that
// a package-level variable or an init function references, and the methods of
// either module that implement one of stdInterfaces or Unwrap, which the
// standard library calls on its own account. A function is reached when a root
// or a reached function references it outside its own declaration, and a
// reached interface method reaches every method of either module that
// implements it. Implementing an interface reaches nothing by itself: a method
// that live code calls neither directly nor through an interface is dead. What
// a seam references counts as reached too, kept apart from what live code
// reaches. The universe's type-checking means a method of the same name on
// another type does not count, and a generic method counts through its origin.
// Types, variables and constants are out of scope: sentinel errors are the
// documented error contract.
func analyzeReachability(t *testing.T) map[string]reachedFunc {
	t.Helper()
	if reachability != nil {
		return reachability
	}
	u := loadUniverse(t)
	fset, checked, infos, parsed, imp := u.fset, u.checked, u.infos, u.parsed, u.imp

	// Every function and method under internal/, by the name seams uses: the
	// package's path below internal/, the receiver's type name, and the
	// function's name. An interface's method is named by the interface that
	// declares it.
	defined := make(map[*types.Func]string)
	for path, pkg := range checked {
		rel, ok := strings.CutPrefix(path, modulePrefix)
		if !ok {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				defined[obj] = rel + "." + name
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				if it, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						m := it.ExplicitMethod(i)
						defined[m] = rel + "." + name + "." + m.Name()
					}
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					defined[m] = rel + "." + name + "." + m.Name()
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

	// The named types of either module that can implement an interface, and
	// the method set of each as a pointer, the larger of its two.
	var methodSets []*types.MethodSet
	var pointers []types.Type
	for _, pkg := range checked {
		for _, name := range pkg.Scope().Names() {
			obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			n, ok := obj.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
				continue
			}
			ptr := types.NewPointer(n)
			pointers = append(pointers, ptr)
			methodSets = append(methodSets, types.NewMethodSet(ptr))
		}
	}
	// implementations returns the methods of either module that implement the
	// interface method m, on every named type that implements m's interface.
	implementers := make(map[*types.Interface][]*types.MethodSet)
	implementations := func(m *types.Func, it *types.Interface) []*types.Func {
		sets, ok := implementers[it]
		if !ok {
			for i, ptr := range pointers {
				if types.Implements(ptr, it) {
					sets = append(sets, methodSets[i])
				}
			}
			implementers[it] = sets
		}
		var fns []*types.Func
		for _, set := range sets {
			if sel := set.Lookup(m.Pkg(), m.Name()); sel != nil {
				fns = append(fns, sel.Obj().(*types.Func).Origin())
			}
		}
		return fns
	}

	// The standard library calls the methods of stdInterfaces and Unwrap on
	// its own account: errors.Is, As and Unwrap reach a wrapped error through
	// an interface package errors does not name.
	var std []*types.Interface
	for _, s := range stdInterfaces {
		scope := types.Universe
		if s[0] != "" {
			pkg, err := imp.Import(s[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		std = append(std, scope.Lookup(s[1]).Type().Underlying().(*types.Interface))
	}
	result := types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type()))
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, result, false))
	std = append(std, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	for _, it := range std {
		for i := 0; i < it.NumMethods(); i++ {
			roots = append(roots, implementations(it.Method(i), it)...)
		}
	}

	// reach marks what from reaches through references made by reached
	// functions only: what only dead code calls is dead too.
	reach := func(from []*types.Func) map[*types.Func]bool {
		reached := make(map[*types.Func]bool)
		for len(from) > 0 {
			fn := from[len(from)-1]
			from = from[:len(from)-1]
			if reached[fn] {
				continue
			}
			reached[fn] = true
			from = append(from, uses[fn]...)
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					from = append(from, implementations(fn, it)...)
				}
			}
		}
		return reached
	}
	live := reach(roots)
	var fromSeams []*types.Func
	for fn, name := range defined {
		if _, ok := seams[name]; ok {
			fromSeams = append(fromSeams, uses[fn]...)
		}
	}
	bySeams := reach(fromSeams)

	funcs := make(map[string]reachedFunc, len(defined))
	for fn, name := range defined {
		funcs[name] = reachedFunc{pos: fset.Position(fn.Pos()).String(), reached: live[fn], reachedSeams: bySeams[fn]}
	}
	reachability = funcs
	return funcs
}

// checkReachable holds the functions and methods that part selects, by their
// seams name, to the reachability rule: each is reached, or it is a seam listed
// with its reason, or it is deleted.
func checkReachable(t *testing.T, part func(name string) bool) {
	funcs := analyzeReachability(t)
	var unreached []string
	for name, fn := range funcs {
		if !part(name) {
			continue
		}
		_, seam := seams[name]
		switch {
		case !fn.reached && !fn.reachedSeams && !seam:
			unreached = append(unreached, name+" ("+fn.pos+")")
		case fn.reached && seam:
			t.Errorf("%s is listed in seams and is reachable: drop it from the list", name)
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		t.Errorf("%s is reached from no binary, example or geobench, directly or through an interface: call it from live code, list it in seams with the test that needs it, or delete it", name)
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

// TestRouterMethodsAreReachable holds the methods of *registry.Router to the
// reachability rule.
func TestRouterMethodsAreReachable(t *testing.T) {
	checkReachable(t, isRouterMethod)
}

// TestExportedFuncsAreReachable holds every other function and method under
// internal/, exported or not, and every method an interface there declares, to
// the reachability rule.
func TestExportedFuncsAreReachable(t *testing.T) {
	checkReachable(t, func(name string) bool { return !isOption(name) && !isRouterMethod(name) })
}

// configSeams are the config fields that only tests set, each with the tests
// that need it and why it stays: it lets a test run fast, step a clock, or
// reach a bound it could not reach at the default. A field whose only tests
// are tests of itself is not a seam; it is deleted.
var configSeams = map[string]string{
	"memcache.Config.Shards":                      "TestIndexWrapAround, TestValueSurvivesEvacuation: one shard forces index growth and evacuation",
	"readcache.Options.Capacity":                  "TestLRUEvictionBoundsOccupancy, TestBulkWriteLeavesNoSlots: a capacity a test can overrun, so eviction and the slot bound show",
	"readcache.Options.Now":                       "TestFeedlessTTLFallback: the staleness clock, so a feedless cache's TTL is stepped instead of slept",
	"workflow.EngineConfig.RetryInterval":         "TestEngineAllStrategies, TestEngineEventualConsistencyRetries, TestWorkflowsRunThroughEngine: short polls keep the eventually consistent runs fast",
	"workloads.SyntheticConfig.ReadRetryInterval": "TestRunSyntheticAllStrategies: short polls keep the eventually consistent runs fast",
}

// configExempt are the config structs the rule does not hold: their fields are
// decoded from an operator's file, not set by code.
var configExempt = map[string]bool{
	"limits.Config":      true,
	"limits.TenantLimit": true,
}

// isConfigType reports whether a type name is one the config rule holds.
func isConfigType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// TestConfigFieldsAreSet holds the exported fields of every exported
// Config/Options struct under internal/ to the options' rule: a field stays
// only while non-test code of either module sets it — as a key of a struct
// literal, by assignment or increment through a value of its type, or by
// taking its address, as a flag binding does — or it is a seam listed in
// configSeams. A default that the field's own package fills in when the field
// is unset (an assignment under an if whose condition reads the field) does
// not count. Embedded fields are held through their own struct.
func TestConfigFieldsAreSet(t *testing.T) {
	u := loadUniverse(t)
	fields := make(map[*types.Var]string) // field -> its configSeams name
	structs := make(map[string]bool)      // the structs found, exempt ones included
	for path, pkg := range u.checked {
		rel, ok := strings.CutPrefix(path, modulePrefix)
		if !ok {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !obj.Exported() || obj.IsAlias() {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			structs[rel+"."+name] = true
			if !isConfigType(name) || configExempt[rel+"."+name] {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields[f] = rel + "." + name + "." + f.Name()
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no config struct found under internal/")
	}
	for name := range configExempt {
		if !structs[name] {
			t.Errorf("configExempt lists %s, which is not an exported struct", name)
		}
	}

	set := make(map[*types.Var]int) // field -> places non-test code sets it
	for path, files := range u.parsed {
		info := u.infos[path]
		field := func(e ast.Expr) *types.Var {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			f, _ := info.Uses[sel.Sel].(*types.Var)
			if _, held := fields[f]; !held {
				return nil
			}
			return f
		}
		for _, file := range files {
			// defaults are the assignments that fill an unset field in its
			// own package: under an if whose condition reads that field.
			defaults := make(map[ast.Node]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				ifs, ok := n.(*ast.IfStmt)
				if !ok {
					return true
				}
				read := make(map[*types.Var]bool)
				ast.Inspect(ifs.Cond, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						if f := field(e); f != nil && f.Pkg().Path() == path {
							read[f] = true
						}
					}
					return true
				})
				for _, stmt := range ifs.Body.List {
					if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && read[field(as.Lhs[0])] {
						defaults[as] = true
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if f, ok := info.Uses[id].(*types.Var); ok {
							if _, held := fields[f]; held {
								set[f]++
							}
						}
					}
				case *ast.AssignStmt:
					if !defaults[n] {
						for _, lhs := range n.Lhs {
							if f := field(lhs); f != nil {
								set[f]++
							}
						}
					}
				case *ast.IncDecStmt:
					if f := field(n.X); f != nil {
						set[f]++
					}
				case *ast.UnaryExpr:
					if f := field(n.X); f != nil && n.Op == token.AND {
						set[f]++
					}
				}
				return true
			})
		}
	}

	var unset []string
	names := make(map[string]bool, len(fields))
	for f, name := range fields {
		names[name] = true
		_, seam := configSeams[name]
		switch {
		case set[f] == 0 && !seam:
			unset = append(unset, name+" ("+u.fset.Position(f.Pos()).String()+")")
		case set[f] > 0 && seam:
			t.Errorf("%s is listed in configSeams and set by non-test code: drop it from the list", name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s is set by no binary, example, geobench or other non-test code: wire it to a caller, list it in configSeams with the test that needs it, or delete it", name)
	}
	for name, reason := range configSeams {
		if !names[name] {
			t.Errorf("configSeams lists %s, which is not a field the rule holds", name)
		}
		tests, _, _ := strings.Cut(reason, ":")
		for _, test := range strings.Split(tests, ", ") {
			if !declaredTests(t)[test] {
				t.Errorf("configSeams gives %s the test %q, which no test file declares", name, test)
			}
		}
	}
}

// testNames caches declaredTests' result.
var testNames map[string]bool

// declaredTests returns the names of the Test functions the module's test
// files declare.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	if testNames == nil {
		testNames = make(map[string]bool)
		for _, f := range parseGoFiles(t, true) {
			for _, decl := range f.ast.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					testNames[fd.Name.Name] = true
				}
			}
		}
	}
	return testNames
}
