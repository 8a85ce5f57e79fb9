//go:build settingsaudit

// The settings ratchet, run by scripts/ci.sh beside the export ratchet
// (export_audit_test.go) as
//
//	go test -tags settingsaudit -run '^Test(Settings|Export)Audit' .
//
// A setting is an exported field of an exported struct under internal/
// whose type name ends in Options, Config, Policy or Sweep, or of one of
// namedSettingsTypes, whose fields are settings under another name. The
// audit reads every non-test file of the module and of bench/, from the
// one load both audits share (loadRepo), and lists each setting that no
// file outside the setting's own package sets by name, as a
// composite-literal key or on the left of an assignment. Every listed
// setting must have a line, with its reason, in scripts/unset_settings.txt;
// a setting that gains a caller must leave it.
// A knob nobody sets is a constant waiting to be written beside its reader.
package dragonfly_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const unsetSettingsList = "scripts/unset_settings.txt"

func TestSettingsAudit(t *testing.T) {
	found := unsetSettings(t)
	allowed := readReasonList(t, unsetSettingsList)
	for _, name := range found {
		if !allowed[name] {
			t.Errorf("%s is set by no caller outside its package: make it a constant beside its reader, or add it with its reason to %s", name, unsetSettingsList)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("%s is listed in %s but the audit no longer finds it: remove its line", name, unsetSettingsList)
	}
}

// readReasonList parses a committed ratchet list: one name per line, then
// its reason; blank lines and lines starting with '#' are ignored.
func readReasonList(t *testing.T, path string) map[string]bool {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s carries no reason", path, name)
		}
		out[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// unsetSettings returns the sorted settings, as pkg.Type.Field with pkg
// relative to internal/, that no file outside their package sets.
func unsetSettings(t *testing.T) []string {
	l := loadRepo(t)
	set := map[*types.Var]bool{}
	for pkg, files := range l.files {
		mark := func(id *ast.Ident) {
			if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
				set[v.Origin()] = true
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(id)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							mark(sel.Sel)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						mark(sel.Sel)
					}
				}
				return true
			})
		}
	}

	var out []string
	for _, p := range l.paths {
		rel, ok := strings.CutPrefix(p, "dragonfly/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || l.inTest(tn) || !isSettingsType(rel, name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					out = append(out, rel+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// namedSettingsTypes are the settings types, as pkg.Type, whose names
// escape the suffix rule: the tile server and the client's failover dialer.
var namedSettingsTypes = map[string]bool{"server.Server": true, "client.MultiDialer": true}

func isSettingsType(pkg, name string) bool {
	if namedSettingsTypes[pkg+"."+name] {
		return true
	}
	for _, suffix := range []string{"Options", "Config", "Policy", "Sweep"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// repoLoad is the one load of the repository both audits read: the module
// and bench/, each package with its tests.
var repoLoad struct {
	once sync.Once
	l    *loader
	err  error
}

func loadRepo(t *testing.T) *loader {
	repoLoad.once.Do(func() {
		repoLoad.l, repoLoad.err = load(module{".", "dragonfly", "bench"}, module{"bench", "dragonfly/bench", ""})
	})
	if repoLoad.err != nil {
		t.Fatal(repoLoad.err)
	}
	return repoLoad.l
}

// module is a tree to load: its root directory, its module path, and a
// nested module under root to leave out.
type module struct{ root, path, skip string }

// srcFile is one parsed file, with the import path of its directory; an
// external test file's is the path of the package it tests.
type srcFile struct {
	f    *ast.File
	dir  string
	test bool
}

// loader type-checks the repository's packages from source, each once, so
// a name has one object however many packages reach it. A package is
// checked with its in-package test files, and its external test package
// after every package is loaded. The standard library comes from the
// source importer.
type loader struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	paths []string          // the sorted keys of dirs
	pkgs  map[string]*types.Package
	files map[*types.Package][]*ast.File // non-test files only
	srcs  []srcFile
	info  *types.Info
	std   types.Importer
}

func load(mods ...module) (*loader, error) {
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, m := range mods {
		if err := l.addModule(m); err != nil {
			return nil, err
		}
	}
	for p := range l.dirs {
		l.paths = append(l.paths, p)
	}
	sort.Strings(l.paths)
	for _, p := range l.paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	for _, p := range l.paths {
		bp, err := build.ImportDir(l.dirs[p], 0)
		if err != nil || len(bp.XTestGoFiles) == 0 {
			continue
		}
		if _, err := l.check(p+"_test", p, bp.XTestGoFiles, true); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// addModule registers every directory under root that holds Go files,
// skipping testdata, hidden directories and the nested module skip.
func (l *loader) addModule(m module) error {
	return filepath.WalkDir(m.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != m.root && (path == m.skip || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(m.root, path)
		imp := m.path
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			l.dirs[imp] = path
		}
		return nil
	})
}

// inTest reports whether obj is declared in a _test.go file.
func (l *loader) inTest(obj types.Object) bool {
	return strings.HasSuffix(l.fset.Position(obj.Pos()).Filename, "_test.go")
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, path, append(bp.GoFiles, bp.TestGoFiles...), false)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// check parses names in dir's directory and type-checks them as one
// package. dir is the import path the files are filed under.
func (l *loader) check(path, dir string, names []string, xtest bool) (*types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.dirs[dir], name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	for i, f := range files {
		test := xtest || strings.HasSuffix(names[i], "_test.go")
		l.srcs = append(l.srcs, srcFile{f, dir, test})
		if !test {
			l.files[p] = append(l.files[p], f)
		}
	}
	return p, nil
}
