package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportedSurfaceIsUsed fails for every exported function, method,
// type and struct field declared in a non-test file under internal/
// that nothing outside its own package uses. Callers are the non-test
// files of every other package in the repository: the root package,
// cmd/, examples/, the rest of internal/ and the bench/ module. As with
// the doc lint, a finding is a failure and there is no suppression
// list: a dead export is deleted, moved into a _test.go file, or
// unexported.
func TestExportedSurfaceIsUsed(t *testing.T) {
	for _, finding := range unusedExports(t, "../..") {
		t.Error(finding)
	}
}

// TestExportCheckCatchesOffenders runs the export lint on a fixture
// tree, so a rule that silently stops flagging (or starts flagging what
// it must not) fails here rather than passing the real tree.
func TestExportCheckCatchesOffenders(t *testing.T) {
	findings := unusedExports(t, "testdata/exports")
	got := make([]string, len(findings))
	for i, f := range findings {
		got[i] = f[strings.Index(f, "exported"):]
	}
	want := []string{
		"exported function NoCaller has no caller outside its package",
		"exported function TestOnly has no caller outside its package",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant exactly:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// stdInterfaceMethods are the method names of the standard-library
// interfaces the repository's types implement: error, fmt.Stringer,
// http.Handler, http.ResponseWriter, http.Flusher, json.Marshaler and
// io.Writer. Such a method is called through the interface, never by
// name.
var stdInterfaceMethods = []string{
	"Error", "String", "ServeHTTP", "Header", "Write", "WriteHeader", "Flush", "MarshalJSON",
}

// srcPackage is one directory's non-test files.
type srcPackage struct {
	dir   string // slash-separated, relative to the root
	files []*ast.File
}

// decl is one exported declaration of a checked package: a function
// (Recv ""), a method (Recv and Name), a type (Name) or a struct field
// (Recv is the type, Name the field). Types holds the expressions whose
// named types become used when the declaration is.
type decl struct {
	kind, recv, name string
	pos              token.Pos
	types            []ast.Node
}

func (d *decl) ident() string {
	if d.recv == "" {
		return d.name
	}
	return d.recv + "." + d.name
}

// unusedExports walks the Go tree at root and returns one finding per
// exported declaration of a checked internal/ package that no non-test
// file of another package uses.
func unusedExports(t *testing.T, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := parseTree(t, fset, root)

	// Names used by each package: selectors (x.Name) and composite
	// literal keys (Name: v). Name-based, so a collision can only hide
	// a finding, never invent one.
	used := map[string]map[string]bool{}
	imported := map[string]bool{}
	ifaceMethods := map[string]bool{}
	for _, m := range stdInterfaceMethods {
		ifaceMethods[m] = true
	}
	for _, p := range pkgs {
		names := map[string]bool{}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				imported[path] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					names[n.Sel.Name] = true
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								names[id.Name] = true
							}
						}
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							ifaceMethods[id.Name] = true
						}
					}
				}
				return true
			})
		}
		used[p.dir] = names
	}
	usedOutside := func(dir, name string) bool {
		for other, names := range used {
			if other != dir && names[name] {
				return true
			}
		}
		return false
	}

	var findings []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") || !importedByPath(imported, p.dir) {
			continue
		}
		decls, typeDecls, fields := exportedDecls(p)
		live := map[*decl]bool{}
		var work []*decl
		mark := func(d *decl) {
			if !live[d] {
				live[d] = true
				work = append(work, d)
			}
		}
		for _, d := range decls {
			switch {
			case usedOutside(p.dir, d.name),
				d.kind == "method" && ifaceMethods[d.name],
				d.kind == "type" && hasJSONTags(d):
				mark(d)
			}
		}
		// A type named by a live declaration's signature or fields is
		// reachable from outside, and so are its fields and everything
		// they name in turn.
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			if d.kind == "type" {
				for _, f := range fields[d.name] {
					mark(f)
				}
			}
			for _, e := range d.types {
				ast.Inspect(e, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if td := typeDecls[id.Name]; td != nil {
							mark(td)
						}
					}
					_, sel := n.(*ast.SelectorExpr)
					return !sel
				})
			}
		}
		for _, d := range decls {
			if !live[d] {
				pos := fset.Position(d.pos)
				findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no caller outside its package",
					filepath.ToSlash(filepath.Join(p.dir, filepath.Base(pos.Filename))), pos.Line, d.kind, d.ident()))
			}
		}
	}
	sort.Strings(findings)
	return findings
}

// parseTree parses the non-test Go files of every directory under root,
// skipping testdata and hidden directories.
func parseTree(t *testing.T, fset *token.FileSet, root string) []*srcPackage {
	t.Helper()
	byDir := map[string]*srcPackage{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		p := byDir[rel]
		if p == nil {
			p = &srcPackage{dir: rel}
			byDir[rel] = p
			dirs = append(dirs, rel)
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", root, err)
	}
	pkgs := make([]*srcPackage, len(dirs))
	for i, d := range dirs {
		pkgs[i] = byDir[d]
	}
	return pkgs
}

// importedByPath reports whether some non-test file imports the package
// in dir. A package only tests import is test support, not surface.
func importedByPath(imported map[string]bool, dir string) bool {
	for path := range imported {
		if strings.HasSuffix(path, "/"+dir) {
			return true
		}
	}
	return false
}

// exportedDecls lists a package's exported functions, methods, types
// and struct fields, and indexes every type it declares by name.
func exportedDecls(p *srcPackage) (decls []*decl, types map[string]*decl, fields map[string][]*decl) {
	types, fields = map[string]*decl{}, map[string][]*decl{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				fd := &decl{kind: "function", name: d.Name.Name, pos: d.Pos(), types: []ast.Node{d.Type}}
				if d.Recv != nil {
					fd.kind, fd.recv = "method", receiverName(d.Recv)
				}
				decls = append(decls, fd)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					s, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					td := &decl{kind: "type", name: s.Name.Name, pos: s.Pos(), types: []ast.Node{s.Type}}
					if s.TypeParams != nil {
						td.types = append(td.types, s.TypeParams)
					}
					types[td.name] = td
					if s.Name.IsExported() {
						decls = append(decls, td)
					}
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fd := &decl{kind: "field", recv: td.name, name: id.Name, pos: id.Pos(), types: []ast.Node{fl.Type}}
								decls = append(decls, fd)
								fields[td.name] = append(fields[td.name], fd)
							}
						}
					}
				}
			}
		}
	}
	return decls, types, fields
}

// hasJSONTags reports whether td declares a struct with a json: tag: a
// wire schema, documented in docs/API.md, whose fields encoding/json
// reads by reflection.
func hasJSONTags(td *decl) bool {
	if td == nil || td.kind != "type" {
		return false
	}
	st, ok := td.types[0].(*ast.StructType)
	if !ok {
		return false
	}
	for _, fl := range st.Fields.List {
		if fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) {
			return true
		}
	}
	return false
}
