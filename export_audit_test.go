//go:build settingsaudit

// The export ratchet, run by scripts/ci.sh beside the settings ratchet as
//
//	go test -tags settingsaudit -run '^Test(Settings|Export)Audit' .
//
// The audit reads every exported package-level function, type, constant
// and variable, and every exported method of a named type, declared in a
// non-test file under internal/. A name is used when a non-test file of
// the module or of bench/ outside its package names it. A method is also
// used when its receiver implements an interface the program declares,
// names or imports that has the method (String, Error, the io and net.Conn
// methods, sort.Interface, Decide), and a type is also used when it appears
// in the signature or type of a used name or as the type of an exported
// field of a used type. In leaktest and fleettest, which exist for tests,
// other packages' tests count as callers, and the experiments that the
// reference documents cite stay exported for the experiment-index drift
// gate. Every other name is a finding, and it must have a line, with its
// reason, in scripts/unused_exports.txt; a listed name that gains a caller
// must leave it. Each finding carries its verdict: delete a name nothing
// names, move one only its own tests name into a _test.go file, unexport
// one only its own package names, and rewrite another package's test onto
// a production API before listing a name only that test names.
package dragonfly_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

const unusedExportsList = "scripts/unused_exports.txt"

func TestExportAudit(t *testing.T) {
	l := loadRepo(t)
	exempt := map[string]bool{}
	for _, doc := range citingDocs(t) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range experimentCite.FindAllString(string(b), -1) {
			exempt[m] = true
		}
	}
	allowed := readReasonList(t, unusedExportsList)
	names, found := exportAudit(l, "dragonfly", exempt, allowed, "leaktest", "fleettest")
	t.Logf("%d exported names under internal/, %d unused", names, len(found))
	for _, name := range sortedKeys(found) {
		if !allowed[name] {
			t.Errorf("%s %s, or add it with its reason to %s", name, found[name], unusedExportsList)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("%s is listed in %s but the audit no longer finds it: remove its line", name, unusedExportsList)
	}
}

// TestExportAuditFixture holds the audit's rules to a module with one name
// per verdict, so a change to the rules fails here rather than moving the
// committed list.
func TestExportAuditFixture(t *testing.T) {
	l, err := load(module{"testdata/exportaudit", "exportaudit", ""})
	if err != nil {
		t.Fatal(err)
	}
	_, found := exportAudit(l, "exportaudit", nil, nil)
	want := map[string]string{
		"lib.Orphan":   verdictDelete,
		"lib.Probe":    verdictMove,
		"lib.Fixture":  verdictOtherTests,
		"lib.Internal": verdictUnexport,
	}
	for name, v := range found {
		if want[name] != v {
			t.Errorf("%s: got verdict %q, want %q", name, v, want[name])
		}
	}
	for name, v := range want {
		if _, ok := found[name]; !ok {
			t.Errorf("%s: not found, want verdict %q", name, v)
		}
	}
}

// The experiment-index drift gate's citation pattern and documents.
var experimentCite = regexp.MustCompile(`experiments\.[A-Z][A-Za-z0-9_]*`)

func citingDocs(t *testing.T) []string {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...)
}

const (
	verdictDelete     = "has no caller: delete it"
	verdictMove       = "is named only by its own package's tests: move it into a _test.go file"
	verdictUnexport   = "is named only inside its own package: unexport it"
	verdictOtherTests = "is named outside its package only by tests: rewrite them onto a production API"
)

// exportAudit returns the number of exported names declared in non-test
// files under modPath/internal/, and the unused ones, as pkg.Name or
// pkg.Type.Method with pkg relative to internal/, each with its verdict.
// exempt holds names that count as used, and listed names that stay
// exported though unused, so the types they carry stay too; in the
// packages forTests names, other packages' tests count as callers.
func exportAudit(l *loader, modPath string, exempt, listed map[string]bool, forTests ...string) (int, map[string]string) {
	prefix := modPath + "/internal/"
	key := map[types.Object]string{}
	var methods []*types.Func
	for _, p := range l.paths {
		rel, ok := strings.CutPrefix(p, prefix)
		if !ok {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if l.inTest(obj) {
				continue
			}
			if obj.Exported() {
				key[obj] = rel + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !l.inTest(m) {
					key[m] = rel + "." + name + "." + m.Name()
					methods = append(methods, m)
				}
			}
		}
	}

	// Who names each candidate, by where the naming file lies.
	type naming struct{ ownCode, ownTests, otherCode, otherTests bool }
	named := map[types.Object]*naming{}
	for _, src := range l.srcs {
		ast.Inspect(src.f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := origin(l.info.Uses[id])
			if _, ok := key[obj]; !ok {
				return true
			}
			w := named[obj]
			if w == nil {
				w = &naming{}
				named[obj] = w
			}
			own := obj.Pkg().Path() == src.dir
			switch {
			case own && src.test:
				w.ownTests = true
			case own:
				w.ownCode = true
			case src.test:
				w.otherTests = true
			default:
				w.otherCode = true
			}
			return true
		})
	}

	used := map[types.Object]bool{}
	for obj, k := range key {
		w := named[obj]
		pkg, _, _ := strings.Cut(k, ".")
		if exempt[k] || w != nil && (w.otherCode || w.otherTests && slices.Contains(forTests, pkg)) {
			used[obj] = true
		}
	}
	ifaces := programInterfaces(l)
	for _, m := range methods {
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, iface := range ifaces {
			if hasMethod(iface, m.Name()) &&
				(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				used[m] = true
				break
			}
		}
	}

	// A used or listed name carries the types in its signature, its type,
	// and, for a type, its exported fields' types; a used or listed method
	// carries its receiver. Repeat until nothing new is carried.
	for changed := true; changed; {
		changed = false
		var mark func(types.Type)
		seen := map[types.Type]bool{}
		mark = func(typ types.Type) {
			if typ == nil || seen[typ] {
				return
			}
			seen[typ] = true
			switch typ := typ.(type) {
			case *types.Named:
				if tn := typ.Origin().Obj(); key[tn] != "" && !used[tn] {
					used[tn] = true
					changed = true
				}
				for i := 0; i < typ.TypeArgs().Len(); i++ {
					mark(typ.TypeArgs().At(i))
				}
			case *types.Alias:
				mark(types.Unalias(typ))
			case *types.Pointer:
				mark(typ.Elem())
			case *types.Slice:
				mark(typ.Elem())
			case *types.Array:
				mark(typ.Elem())
			case *types.Chan:
				mark(typ.Elem())
			case *types.Map:
				mark(typ.Key())
				mark(typ.Elem())
			case *types.Signature:
				for _, tup := range []*types.Tuple{typ.Params(), typ.Results()} {
					for i := 0; i < tup.Len(); i++ {
						mark(tup.At(i).Type())
					}
				}
			case *types.Struct:
				for i := 0; i < typ.NumFields(); i++ {
					if f := typ.Field(i); f.Exported() {
						mark(f.Type())
					}
				}
			case *types.Interface:
				for i := 0; i < typ.NumMethods(); i++ {
					mark(typ.Method(i).Type())
				}
			}
		}
		for obj, k := range key {
			if !used[obj] && !listed[k] {
				continue
			}
			switch obj := obj.(type) {
			case *types.TypeName:
				mark(obj.Type().Underlying())
			case *types.Func:
				sig := obj.Type().(*types.Signature)
				if sig.Recv() != nil {
					mark(sig.Recv().Type())
				}
				mark(sig)
			default:
				mark(obj.Type())
			}
		}
	}

	found := map[string]string{}
	for obj, k := range key {
		if used[obj] {
			continue
		}
		w := named[obj]
		switch {
		case w == nil:
			found[k] = verdictDelete
		case w.otherTests:
			found[k] = verdictOtherTests
		case w.ownCode:
			found[k] = verdictUnexport
		default:
			found[k] = verdictMove
		}
	}
	return len(key), found
}

// programInterfaces returns the method-set interfaces the program
// declares or names, those of the packages its non-test files import, and
// error.
func programInterfaces(l *loader) []*types.Interface {
	var out []*types.Interface
	seen := map[types.Object]bool{}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || seen[tn] {
			return
		}
		seen[tn] = true
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if named, isNamed := tn.Type().(*types.Named); ok && iface.IsMethodSet() && (!isNamed || named.TypeParams().Len() == 0) {
			out = append(out, iface)
		}
	}
	add(types.Universe.Lookup("error"))
	for _, src := range l.srcs {
		if src.test {
			continue
		}
		for _, spec := range src.f.Imports {
			p, err := l.Import(strings.Trim(spec.Path.Value, `"`))
			if err != nil {
				continue
			}
			for _, name := range p.Scope().Names() {
				add(p.Scope().Lookup(name))
			}
		}
		ast.Inspect(src.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := l.info.Uses[n]; obj != nil {
					add(obj)
				}
			case *ast.InterfaceType:
				if iface, ok := l.info.Types[n].Type.(*types.Interface); ok && iface.IsMethodSet() {
					out = append(out, iface)
				}
			}
			return true
		})
	}
	for _, p := range l.paths {
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); !l.inTest(obj) {
				add(obj)
			}
		}
	}
	return out
}

func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
