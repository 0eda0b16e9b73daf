package wiring

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// timerPackages are the packages whose timers run per update: the
// protocol, its control and data planes, the churn/soak harness, and
// the baselines.
var timerPackages = []string{"core", "controlplane", "dataplane", "soak", "central", "ezsegway", "ppcu", "optoracle"}

// closureTimers allowlists the functions of timerPackages that may pass
// a func literal to the engine, as "package.Function", with why the
// closure is off the per-update path.
var closureTimers = map[string]string{
	// A reroute wave postponed past a controller partition window: at
	// most one per wave that meets a partition, never per update.
	"soak.deferWave": "rare: partition windows only",
}

// TestNoClosureTimersOnUpdatePath keeps closures off per-update timers:
// in the non-test files of timerPackages, every Schedule, ScheduleAt,
// ScheduleArg and ScheduleAtArg callback must be a value bound once (a
// field or variable holding a method value), not a func literal and
// not a method value bound at the call, each of which allocates per
// event. The exceptions are closureTimers, and an entry no call uses
// any more fails too, so the list stays as short as the code allows.
func TestNoClosureTimersOnUpdatePath(t *testing.T) {
	used := map[string]bool{}
	for _, pkg := range timerPackages {
		fset, files := parsePackage(t, filepath.Join("..", pkg))
		methods, fields := declaredNames(files)
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := pkg + "." + fd.Name.Name
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) < 2 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !strings.HasPrefix(sel.Sel.Name, "Schedule") {
						return true
					}
					var what string
					switch cb := call.Args[1].(type) {
					case *ast.FuncLit:
						what = "a func literal"
					case *ast.SelectorExpr:
						if methods[cb.Sel.Name] && !fields[cb.Sel.Name] {
							what = "the method value " + cb.Sel.Name + ", bound at the call,"
						}
					}
					switch {
					case what == "":
					case closureTimers[key] != "":
						used[key] = true
					default:
						t.Errorf("%v: %s passes %s to %s; schedule a value bound once, with a pooled or owned argument (ScheduleArg, ScheduleAtArg)",
							fset.Position(call.Pos()), key, what, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	for key := range closureTimers {
		if !used[key] {
			t.Errorf("closureTimers lists %s, which schedules no closure any more", key)
		}
	}
}

// parsePackage parses the non-test Go files of dir.
func parsePackage(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return fset, files
}

// declaredNames returns the names of the methods and of the struct
// fields the files declare.
func declaredNames(files []*ast.File) (methods, fields map[string]bool) {
	methods, fields = map[string]bool{}, map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					methods[n.Name.Name] = true
				}
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						fields[id.Name] = true
					}
				}
			}
			return true
		})
	}
	return methods, fields
}
