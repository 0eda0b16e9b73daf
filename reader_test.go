package p4update_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// This file is the rent test for code (DESIGN.md, "Every identifier has
// a reader"): every package-level func, var, const and type, every
// struct field and every method defined in the module's non-test code
// must be read by non-test code, or be named in readerAllowList with the
// reader that keeps it.

// modulePath is the module's import path (go.mod).
const modulePath = "p4update"

// A rentPkg is one type-checked package of a scan.
type rentPkg struct {
	path    string
	files   []*ast.File
	info    *types.Info
	types   *types.Package
	checked bool // its definitions must have readers
}

// An unread is one definition with no non-test read.
type unread struct {
	key string // readerAllowList's spelling: "pkg.Name", "pkg.Type.Field"
	pos token.Position
}

// shortPath is a package path as keys spell it: the module prefix and
// "internal/" dropped, so "p4update/internal/soak" is "soak" and the
// module root is "p4update".
func shortPath(path string) string {
	if path == modulePath {
		return path
	}
	path = strings.TrimPrefix(path, modulePath+"/")
	return strings.TrimPrefix(path, "internal/")
}

// findUnread returns every definition in a checked package that no
// code in any package reads, sorted by key, and the keys of all the
// definitions it checked.
//
// A read is any use of the object except: the written operand of an
// assignment (`=`, `op=`) or `++`/`--`, the operands it is reached
// through (`s.stats.N++` writes stats and N), the same object read on
// the right of its own assignment (`x.f = append(x.f, v)`), a
// composite-literal key, a function's or type's use inside its own
// declaration, and a method receiver's type. A field with a json tag,
// a field of a struct used as a map key (the map reads it on every
// lookup), a method an interface asks for, an embedded field that
// method is promoted through, and an embedded field a promoted selector
// passes through are read.
func findUnread(fset *token.FileSet, pkgs []*rentPkg) ([]unread, map[string]bool) {
	keys := map[types.Object]string{}
	var order []types.Object
	define := func(obj types.Object, key string) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		if _, dup := keys[obj]; !dup {
			keys[obj] = key
			order = append(order, obj)
		}
	}
	read := map[types.Object]bool{}
	ifaces := interfacesOf(pkgs)

	for _, p := range pkgs {
		for _, f := range p.files {
			collectReads(p.info, f, read)
		}
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				markStruct(m.Key(), read)
			}
		}
		if !p.checked {
			continue
		}
		prefix := shortPath(p.path)
		for _, f := range p.files {
			defineIn(p.info, f, prefix, define)
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for _, m := range askedFor(named, ifaces) {
				read[m] = true
			}
		}
	}

	var out []unread
	defined := make(map[string]bool, len(order))
	for _, obj := range order {
		defined[keys[obj]] = true
		if read[obj] {
			continue
		}
		if pkg := obj.Pkg(); pkg.Name() == "main" && obj.Parent() == pkg.Scope() && obj.Name() == "main" {
			continue
		}
		out = append(out, unread{keys[obj], fset.Position(obj.Pos())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, defined
}

// defineIn names every definition of f that must have a reader:
// package-level funcs, vars, consts and types, methods, and struct
// fields at any depth, a field keyed by the declarations it sits in
// ("soak.SLO.episodes"; "p4update.table.name" for a field of an
// anonymous struct in var table).
func defineIn(info *types.Info, f *ast.File, prefix string, define func(types.Object, string)) {
	path := []string{prefix}
	var visit func(n ast.Node) bool
	under := func(name string, n ast.Node) { // visits n with name on the path
		path = append(path, name)
		ast.Inspect(n, visit)
		path = path[:len(path)-1]
	}
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			under(n.Name.Name, n.Type)
			return false
		case *ast.StructType:
			for _, fl := range n.Fields.List {
				ids := fl.Names
				if len(ids) == 0 { // embedded: named by its type
					ids = []*ast.Ident{typeIdent(fl.Type)}
				}
				for _, id := range ids {
					define(info.Defs[id], strings.Join(append(path, id.Name), "."))
					under(id.Name, fl.Type)
				}
			}
			return false
		}
		return true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				name = typeIdent(d.Recv.List[0].Type).Name + "." + name
			}
			if name != "init" {
				define(info.Defs[d.Name], prefix+"."+name)
			}
			if d.Body != nil {
				under(name, d.Body)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					define(info.Defs[s.Name], prefix+"."+s.Name.Name)
					ast.Inspect(s, visit)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						define(info.Defs[id], prefix+"."+id.Name)
					}
					under(s.Names[0].Name, s)
				}
			}
		}
	}
}

// typeIdent is the identifier naming the type of an embedded field or
// a method receiver: T in T, *T, pkg.T and T[P].
func typeIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.StarExpr:
		return typeIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return typeIdent(e.X)
	case *ast.IndexListExpr:
		return typeIdent(e.X)
	}
	return nil
}

// collectReads marks every object f reads.
func collectReads(info *types.Info, f *ast.File, read map[types.Object]bool) {
	writes := map[*ast.Ident]bool{}
	var written func(e ast.Expr, objs []types.Object) []types.Object
	written = func(e ast.Expr, objs []types.Object) []types.Object {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return written(e.X, objs)
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				writes[e] = true
				objs = append(objs, obj)
			}
		case *ast.SelectorExpr:
			obj, ok := info.Uses[e.Sel].(*types.Var)
			if !ok {
				return objs
			}
			writes[e.Sel] = true
			objs = append(objs, obj)
			if !obj.IsField() { // pkg.Var
				return objs
			}
			if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
				return written(e.X, objs)
			}
		case *ast.IndexExpr:
			switch info.TypeOf(e.X).Underlying().(type) {
			case *types.Slice, *types.Map, *types.Array:
				return written(e.X, objs)
			}
		}
		return objs
	}
	// hidden holds what is not read where it appears: the declarations
	// being walked, and the objects an assignment being walked writes.
	var hidden []types.Object
	var inspect func(n ast.Node) bool
	walkHiding := func(objs []types.Object, n ast.Node) {
		hidden = append(hidden, objs...)
		ast.Inspect(n, inspect)
		hidden = hidden[:len(hidden)-len(objs)]
	}
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			var objs []types.Object
			for _, l := range n.Lhs {
				objs = written(l, objs)
			}
			for _, l := range n.Lhs {
				ast.Inspect(l, inspect)
			}
			for _, r := range n.Rhs {
				walkHiding(objs, r)
			}
			return false
		case *ast.IncDecStmt:
			written(n.X, nil)
		case *ast.CompositeLit:
			if _, ok := info.TypeOf(n).Underlying().(*types.Struct); ok {
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && len(sel.Index()) > 1 {
				// A promoted field or method reads the embedded
				// fields it passes through.
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					st, ok := deref(t).Underlying().(*types.Struct)
					if !ok {
						break
					}
					read[st.Field(i)] = true
					t = st.Field(i).Type()
				}
			}
		case *ast.FuncDecl:
			if n.Recv != nil {
				writes[typeIdent(n.Recv.List[0].Type)] = true
				ast.Inspect(n.Recv, inspect)
			}
			self := []types.Object{info.Defs[n.Name]}
			walkHiding(self, n.Type)
			if n.Body != nil {
				walkHiding(self, n.Body)
			}
			return false
		case *ast.TypeSpec:
			walkHiding([]types.Object{info.Defs[n.Name]}, n.Type)
			return false
		case *ast.StructType: // the JSON encoder reads tagged fields
			for _, fl := range n.Fields.List {
				if fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) && !strings.Contains(fl.Tag.Value, `json:"-"`) {
					for _, id := range fl.Names {
						read[info.Defs[id]] = true
					}
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || writes[n] {
				return true
			}
			for _, h := range hidden {
				if h == obj {
					return true
				}
			}
			read[origin(obj)] = true
		}
		return true
	}
	ast.Inspect(f, inspect)
}

// origin is the generic declaration behind an instantiated field or
// method, the object its definition records.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// deref is the element type of a pointer type, and t otherwise.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// markStruct marks every field of a map key type t read, the fields of
// nested structs and arrays included: key equality compares them all.
func markStruct(t types.Type, read map[types.Object]bool) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		if a, ok := t.Underlying().(*types.Array); ok {
			markStruct(a.Elem(), read)
		}
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		read[st.Field(i)] = true
		markStruct(st.Field(i).Type(), read)
	}
}

// interfacesOf lists every non-empty interface the scanned code can
// see: those its packages and their imports declare, and those its
// expressions have.
func interfacesOf(pkgs []*rentPkg) []*types.Interface {
	var out []*types.Interface
	seenPkg := map[*types.Package]bool{}
	seenIface := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seenIface[it] {
			return
		}
		seenIface[it] = true
		out = append(out, it)
	}
	add(types.Universe.Lookup("error").Type())
	var visitPkg func(p *types.Package)
	visitPkg = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visitPkg(imp)
		}
	}
	for _, p := range pkgs {
		visitPkg(p.types)
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
	}
	return out
}

// askedFor lists the methods of named (or *named) that an interface in
// ifaces asks for, and the embedded fields each such method that is
// promoted reaches named through.
func askedFor(named *types.Named, ifaces []*types.Interface) []types.Object {
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	if mset.Len() == 0 {
		return nil
	}
	var out []types.Object
	for _, it := range ifaces {
		if m0 := it.Method(0); mset.Lookup(m0.Pkg(), m0.Name()) == nil {
			continue
		}
		if !types.Implements(named, it) && !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			obj, index, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
			if obj == nil {
				continue
			}
			out = append(out, obj)
			var t types.Type = named
			for _, k := range index[:len(index)-1] {
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				f := st.Field(k)
				out = append(out, f)
				t = f.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
			}
		}
	}
	return out
}

// checkSources type-checks the packages of files (import path to parsed
// files), taking every other import from std, and returns them in
// dependency order; checked says whose definitions need readers.
func checkSources(fset *token.FileSet, files map[string][]*ast.File, std types.Importer, checked func(path string) bool) ([]*rentPkg, error) {
	done := map[string]*rentPkg{}
	var pkgs []*rentPkg
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if _, ok := files[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if p := done[path]; p != nil {
			return p.types, nil
		}
		p := &rentPkg{path: path, files: files[path], checked: checked(path), info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		tp, err := conf.Check(path, fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", path, err)
		}
		p.types = tp
		done[path] = p
		pkgs = append(pkgs, p)
		return tp, nil
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := check(p); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModule type-checks the non-test packages of the module at root.
// Standard-library imports come from the build cache's export data,
// which one `go list -export` call locates (the source importer would
// re-check the standard library, several seconds).
func loadModule(root string, checked func(path string) bool) (*token.FileSet, []*rentPkg, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	std := map[string]bool{}
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil // no buildable Go files here
		}
		path := modulePath
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[path] = append(files[path], f)
		}
		for _, imp := range bp.Imports {
			if !strings.HasPrefix(imp, modulePath+"/") {
				std[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for imp := range std {
		args = append(args, imp)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			export[path] = file
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := export[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	pkgs, err := checkSources(fset, files, gc, checked)
	return fset, pkgs, err
}

// The reasons an allow-list entry may give, by prefix. A json-tagged
// field, an interface's method and the exported API of the module root
// (the p4update.go facade) are read by rule and need no entry; the
// prefixes exist for what the rules cannot see, such as a struct
// marshalled whole without tags.
const (
	whyJSON      = "JSON output: "
	whyFacade    = "public facade: "
	whyInterface = "interface method: "
	whyTestOnly  = "test-only by design: " // then the reading test's name
	whyRoadmap   = "ROADMAP item "         // then the item that will read it
)

// rentProblems lists what fails the rent test: each unread definition
// that is neither facade nor in allow, and each allow entry that names
// no definition, names one that has a reader, or whose reason why
// rejects.
func rentProblems(unreads []unread, defined map[string]bool, allow map[string]string, why func(key, reason string) error) []string {
	var out []string
	unreadKeys := map[string]bool{}
	for _, u := range unreads {
		unreadKeys[u.key] = true
		if _, ok := allow[u.key]; !ok && !isFacade(u.key) {
			out = append(out, fmt.Sprintf("%s (%s:%d) has no non-test reader: delete it, give it one, or allow-list it with the reader that keeps it",
				u.key, u.pos.Filename, u.pos.Line))
		}
	}
	keys := make([]string, 0, len(allow))
	for k := range allow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch {
		case !defined[k]:
			out = append(out, fmt.Sprintf("allow-list entry %s names no definition", k))
		case !unreadKeys[k]:
			out = append(out, fmt.Sprintf("allow-list entry %s has a non-test reader now: drop the entry", k))
		default:
			if err := why(k, allow[k]); err != nil {
				out = append(out, fmt.Sprintf("allow-list entry %s: %v", k, err))
			}
		}
	}
	return out
}

// isFacade reports whether key names the module root's exported API:
// its reader is whoever imports the module.
func isFacade(key string) bool {
	rest, ok := strings.CutPrefix(key, modulePath+".")
	if !ok {
		return false
	}
	for _, part := range strings.Split(rest, ".") {
		if !token.IsExported(part) {
			return false
		}
	}
	return true
}

// readerAllowList names each definition that stays without a non-test
// reader, with the reader that keeps it (see the why* prefixes).
var readerAllowList = map[string]string{
	// The P4Update facade re-exports these types (p4update.UpdateStatus,
	// Network.Stats); the facade's importers read them.
	"controlplane.UpdateStatus.Alarms": whyFacade + "p4update.UpdateStatus",
	"controlplane.UpdateStatus.Queued": whyFacade + "p4update.UpdateStatus (Network.UpdateFlow's queued state)",
	"dataplane.Stats.BlackholeDrops":   whyFacade + "summed by p4update.Network.Stats",
	"dataplane.Stats.DataDelivered":    whyFacade + "summed by p4update.Network.Stats",
	"dataplane.Stats.DataForwarded":    whyFacade + "summed by p4update.Network.Stats",
	"dataplane.Stats.TTLDrops":         whyFacade + "summed by p4update.Network.Stats",
	"dataplane.Network.FlowChanged":    whyTestOnly + "TestAuditorDetectsVersionRegress",
	"deploy.SwitchDaemon.FlowVersion":  whyTestOnly + "TestControllerCrashMidUpdate",
	"deploy.SwitchDaemon.Inject":       whyTestOnly + "TestControllerCrashMidUpdate",
	"faults.CorruptMatching":           whyTestOnly + "TestPlanCorruptRuleRejectedAtReceiver",
	"faults.DuplicateMatching":         whyTestOnly + "TestPlanDuplicateRuleDeliversTwice",
	"faults.Injector.RuleHits":         whyTestOnly + "TestFacadeFailureRecovery",
	"sim.Engine.Pending":               whyTestOnly + "TestPendingTracksCancelledTimers",
	"trace.CoreCodes":                  whyTestOnly + "TestDecisionCoverage",
	"transport.Fabric.Dropped":         whyTestOnly + "TestRetransmitAfterDrop",
	"transport.Fabric.Duplicated":      whyTestOnly + "TestDuplicateSuppression",
	"topo.PathOracle.sweeps":           whyRoadmap + "20: the topo layer's first work counter",
	"topo.PathOracle.centroidSweeps":   whyRoadmap + "20: the topo layer's first work counter",
	"transport.Stats.Delivered":        whyRoadmap + "5: the daemons' /statusz",
	"transport.Stats.Duplicates":       whyRoadmap + "5: the daemons' /statusz",
	"transport.Stats.Reordered":        whyRoadmap + "5: the daemons' /statusz",
	"transport.Stats.DecodeErr":        whyRoadmap + "5: the daemons' /statusz",
	"transport.Stats.Oversized":        whyRoadmap + "5: the daemons' /statusz",
}

// moduleReasons checks a reason against the module: a test-only entry
// must name a test whose file mentions the identifier, a ROADMAP entry
// an item that exists.
func moduleReasons(t *testing.T) func(key, reason string) error {
	t.Helper()
	tests := map[string]string{} // test name -> its file's source
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			tests[m[1]] = string(src)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	return func(key, reason string) error {
		name := key[strings.LastIndex(key, ".")+1:]
		switch {
		case strings.HasPrefix(reason, whyTestOnly):
			test := strings.Fields(strings.TrimPrefix(reason, whyTestOnly))[0]
			src, ok := tests[test]
			if !ok {
				return fmt.Errorf("no test %s", test)
			}
			if !strings.Contains(src, name) {
				return fmt.Errorf("the file of %s never mentions %s", test, name)
			}
		case strings.HasPrefix(reason, whyRoadmap):
			item, _, _ := strings.Cut(strings.TrimPrefix(reason, whyRoadmap), ":")
			if !strings.Contains(string(roadmap), "- **"+item+". ") {
				return fmt.Errorf("ROADMAP.md has no item %s", item)
			}
		case strings.HasPrefix(reason, whyJSON), strings.HasPrefix(reason, whyFacade), strings.HasPrefix(reason, whyInterface):
		default:
			return fmt.Errorf("reason %q names none of the five readers", reason)
		}
		return nil
	}
}

// TestEveryIdentifierHasAReader fails on any definition in the module's
// non-test code that no non-test code reads and readerAllowList does not
// keep. Reads from benchmark/ count, but its own definitions are not
// checked: the benchmark is edited only in benchmark changes.
func TestEveryIdentifierHasAReader(t *testing.T) {
	fset, pkgs, err := loadModule(".", func(path string) bool {
		return path != modulePath+"/benchmark" && !strings.HasPrefix(path, modulePath+"/benchmark/")
	})
	if err != nil {
		t.Fatal(err)
	}
	unreads, defined := findUnread(fset, pkgs)
	for _, p := range rentProblems(unreads, defined, readerAllowList, moduleReasons(t)) {
		t.Error(p)
	}
}
