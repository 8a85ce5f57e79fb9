//go:build settingsaudit

// The settings ratchet, run by scripts/ci.sh as
//
//	go test -tags settingsaudit -run '^TestSettingsAudit$' .
//
// A setting is an exported field of an exported struct under internal/
// whose type name ends in Options, Config, Policy or Sweep. The audit
// type-checks every non-test file of the module and of bench/ and lists
// each setting that no file outside the setting's own package sets by
// name, as a composite-literal key or on the left of an assignment. Every
// listed setting must have a line, with its reason, in
// scripts/unset_settings.txt; a setting that gains a caller must leave it.
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
	"testing"
)

const unsetSettingsList = "scripts/unset_settings.txt"

func TestSettingsAudit(t *testing.T) {
	found := unsetSettings(t)
	allowed := readUnsetSettings(t)
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

// readUnsetSettings parses the committed list: one setting per line, then
// its reason; blank lines and lines starting with '#' are ignored.
func readUnsetSettings(t *testing.T) map[string]bool {
	f, err := os.Open(unsetSettingsList)
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
			t.Errorf("%s: %s carries no reason", unsetSettingsList, name)
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
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	l.addModule(t, ".", "dragonfly", "bench")
	l.addModule(t, "bench", "dragonfly/bench", "")
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

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
	for _, p := range paths {
		rel, ok := strings.CutPrefix(p, "dragonfly/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isSettingsType(name) {
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

func isSettingsType(name string) bool {
	for _, suffix := range []string{"Options", "Config", "Policy", "Sweep"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// loader type-checks the repository's packages from source, each once, so
// a field has one object however many packages reach it. The standard
// library comes from the source importer.
type loader struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[*types.Package][]*ast.File
	info  *types.Info
	std   types.Importer
}

// addModule registers every directory under root that holds Go files,
// skipping testdata, hidden directories and the nested module skip.
func (l *loader) addModule(t *testing.T, root, modPath, skip string) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (path == skip || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		imp := modPath
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			l.dirs[imp] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
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
	l.pkgs[path] = p
	l.files[p] = files
	return p, nil
}
