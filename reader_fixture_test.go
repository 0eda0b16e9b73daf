package p4update_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// readerFixture is a two-package module for the rent checker: fix/lib is
// checked, fix/bench reads it the way benchmark/ reads the module and is
// not checked itself.
var readerFixture = map[string]string{
	"fix/lib": `package lib

type Stats struct {
	WriteOnly int // written three ways, never read
	AppendOnly []int
	Read      int
	Tagged    int ` + "`json:\"tagged\"`" + `
}

// key is a map key: the map compares every field on each lookup.
type key struct{ flow, version int }

var seen = map[key]bool{}

type Namer interface{ Name() string }

type node struct{}

// Name satisfies Namer; nothing calls it directly.
func (node) Name() string { return "n" }

// Error satisfies the universe's error.
func (node) Error() string { return "e" }

func (node) unused() {}

// base lends Name to the types that embed it.
type base struct{}

func (*base) Name() string { return "b" }

// wrapper is a Namer only through the Name its embedded *base lends it.
type wrapper struct{ *base }

func Wrapped() Namer { return wrapper{&base{}} }

// plain embeds a type that lends no interface method.
type plain struct{ Stats }

func Plain() any { return plain{} }

// Label calls Name through the interface only.
func Label(n Namer) string { return n.Name() }

func Fail() error { return node{} }

func Count(s *Stats) int {
	s.WriteOnly = 1
	s.WriteOnly++
	s.WriteOnly += s.WriteOnly
	s.AppendOnly = append(s.AppendOnly, 1)
	seen[key{1, 2}] = true
	return s.Read + len(seen)
}

func New() *Stats { return &Stats{WriteOnly: 3} }

func orphan() int { return orphan() }

func BenchOnly() {}

// Knob is set from outside and never read.
var Knob int
`,
	"fix/bench": `package main

import "fix/lib"

func helper() {}

func main() {
	lib.Count(lib.New())
	lib.BenchOnly()
	lib.Knob = 2
	_ = lib.Label(lib.Wrapped()) + lib.Fail().Error()
	_ = lib.Plain()
}
`,
}

// checkFixture runs the checker core over sources (import path to one
// file's source), checking every package but fix/bench.
func checkFixture(t *testing.T, sources map[string]string) ([]unread, map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for path, src := range sources {
		f, err := parser.ParseFile(fset, path+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = []*ast.File{f}
	}
	noStd := importerFunc(func(path string) (*types.Package, error) {
		return nil, fmt.Errorf("fixture imports %s", path)
	})
	pkgs, err := checkSources(fset, files, noStd, func(path string) bool { return path != "fix/bench" })
	if err != nil {
		t.Fatal(err)
	}
	return findUnread(fset, pkgs)
}

func TestReaderCheckerOnFixture(t *testing.T) {
	unreads, defined := checkFixture(t, readerFixture)
	var got []string
	for _, u := range unreads {
		got = append(got, u.key)
	}
	reported := func(key string) bool { return slices.Contains(got, key) }
	for _, c := range []struct {
		key, what string
		want      bool
	}{
		{"fix/lib.Stats.WriteOnly", "a field only assigned, incremented and composite-literal keyed", true},
		{"fix/lib.Stats.AppendOnly", "a field only appended to itself", true},
		{"fix/lib.orphan", "a function only its own body calls", true},
		{"fix/lib.Knob", "a package variable only assigned from another package", true},
		{"fix/lib.node.unused", "a method no interface asks for", true},
		{"fix/lib.plain.Stats", "an embedded field that lends no interface method", true},
		{"fix/lib.Stats.Read", "a read field", false},
		{"fix/lib.Stats.Tagged", "a json-tagged field", false},
		{"fix/lib.key.flow", "a field of a map-key struct", false},
		{"fix/lib.key.version", "a field of a map-key struct", false},
		{"fix/lib.node.Name", "a method a module interface asks for", false},
		{"fix/lib.node.Error", "a method error asks for", false},
		{"fix/lib.wrapper.base", "an embedded field an interface's method is promoted through", false},
		{"fix/lib.base.Name", "a method promoted to a module interface", false},
		{"fix/lib.BenchOnly", "a function read from an unchecked package", false},
	} {
		if !defined[c.key] {
			t.Errorf("%s (%s) was not checked", c.key, c.what)
		} else if reported(c.key) != c.want {
			t.Errorf("%s (%s): reported %v, want %v", c.key, c.what, !c.want, c.want)
		}
	}
	if defined["fix/bench.helper"] {
		t.Error("a definition in an unchecked package was checked")
	}
	want := []string{"fix/lib.Knob", "fix/lib.Stats.AppendOnly", "fix/lib.Stats.WriteOnly", "fix/lib.node.unused", "fix/lib.orphan", "fix/lib.plain.Stats"}
	if !slices.Equal(got, want) {
		t.Errorf("reported %v, want %v", got, want)
	}
}

func TestReaderAllowListCannotRot(t *testing.T) {
	unreads, defined := checkFixture(t, readerFixture)
	ok := func(key, reason string) error { return nil }
	allow := map[string]string{
		"fix/lib.Knob":             whyTestOnly + "TestX",
		"fix/lib.Stats.WriteOnly":  whyTestOnly + "TestX",
		"fix/lib.Stats.AppendOnly": whyTestOnly + "TestX",
		"fix/lib.node.unused":      whyTestOnly + "TestX",
		"fix/lib.orphan":           whyTestOnly + "TestX",
		"fix/lib.plain.Stats":      whyTestOnly + "TestX",
	}
	if p := rentProblems(unreads, defined, allow, ok); len(p) != 0 {
		t.Fatalf("a complete allow-list fails: %v", p)
	}
	for _, c := range []struct {
		key, want string
	}{
		{"fix/lib.Gone", "names no definition"},
		{"fix/lib.Stats.Read", "has a non-test reader now"},
	} {
		allow[c.key] = whyTestOnly + "TestX"
		p := rentProblems(unreads, defined, allow, ok)
		if len(p) != 1 || !strings.Contains(p[0], c.key+" "+c.want) {
			t.Errorf("entry %s: problems %v, want one that it %s", c.key, p, c.want)
		}
		delete(allow, c.key)
	}
	delete(allow, "fix/lib.orphan")
	if p := rentProblems(unreads, defined, allow, ok); len(p) != 1 || !strings.Contains(p[0], "fix/lib.orphan") {
		t.Errorf("an unread definition without an entry: problems %v", p)
	}
	bad := func(key, reason string) error { return fmt.Errorf("bad reason") }
	if p := rentProblems(unreads, defined, allow, bad); len(p) != 6 {
		t.Errorf("an unlisted definition and five rejected reasons: problems %v", p)
	}
}

func TestReaderFacadeRule(t *testing.T) {
	for key, want := range map[string]bool{
		"p4update.Network.Stats": true,
		"p4update.WithSeed":      true,
		"p4update.config":        false,
		"p4update.Network.sys":   false,
		"soak.SLO":               false,
	} {
		if isFacade(key) != want {
			t.Errorf("isFacade(%q) = %v, want %v", key, !want, want)
		}
	}
}

func TestReaderReasonsAreChecked(t *testing.T) {
	why := moduleReasons(t)
	for _, c := range []struct {
		key, reason string
		ok          bool
	}{
		{"faults.Injector.RuleHits", whyTestOnly + "TestFacadeFailureRecovery", true},
		{"faults.Injector.RuleHits", whyTestOnly + "TestNoSuchTest", false},
		{"faults.Injector.RuleHits", whyTestOnly + "TestQuickstartFlow", false}, // its file never mentions RuleHits
		{"topo.PathOracle.sweeps", whyRoadmap + "20: counters", true},
		{"topo.PathOracle.sweeps", whyRoadmap + "999: no such item", false},
		{"topo.PathOracle.sweeps", "kept for later", false},
	} {
		if err := why(c.key, c.reason); (err == nil) != c.ok {
			t.Errorf("%s %q: error %v, want ok=%v", c.key, c.reason, err, c.ok)
		}
	}
}
