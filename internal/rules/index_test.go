// Package rules holds the repository's own rules as tests: what may
// import what, which deleted names and flags stay deleted, that no
// sync.Pool appears outside tests, that every Go file is gofmt-clean,
// and that the docs name code that exists. Each rule is checked here and
// nowhere else; `go test ./...` runs them all.
package rules

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// srcFile is one .go file of the module.
type srcFile struct {
	path string // slash-separated, relative to the module root
	src  []byte
	test bool // a _test.go file
}

// lines calls fn with every line of f and its 1-based number.
func (f *srcFile) lines(fn func(n int, line string)) {
	sc := bufio.NewScanner(bytes.NewReader(f.src))
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		fn(n, sc.Text())
	}
}

// typeInfo is what a selector on a named type can reach.
type typeInfo struct {
	members  map[string]bool // fields and methods
	embedded []string        // names of embedded types in the same package
}

// pkgInfo is one directory's package, its external _test package folded
// in: a doc that names a test or a helper of either finds it here.
type pkgInfo struct {
	name    string // package clause, without _test
	names   map[string]bool
	types   map[string]*typeInfo
	imports map[string]bool // imports of the non-test files
}

// has reports whether typ, or a type it embeds, has the field or method
// member.
func (p *pkgInfo) has(typ, member string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(t string) bool {
		ti := p.types[t]
		if ti == nil || seen[t] {
			return false
		}
		seen[t] = true
		if ti.members[member] {
			return true
		}
		for _, e := range ti.embedded {
			if walk(e) {
				return true
			}
		}
		return false
	}
	return walk(typ)
}

// index is every .go file under the module root, parsed once.
type index struct {
	root   string
	module string
	files  []*srcFile
	pkgs   map[string]*pkgInfo // by import path
	byName map[string][]*pkgInfo
	// fileNames holds the base name of every file in the repository,
	// top the names at its root.
	fileNames, top map[string]bool
}

var (
	indexOnce sync.Once
	theIndex  *index
	indexErr  error
)

// moduleIndex returns the index of the module this test runs in, built
// on first use.
func moduleIndex(t *testing.T) *index {
	t.Helper()
	indexOnce.Do(func() { theIndex, indexErr = buildIndex() })
	if indexErr != nil {
		t.Fatal(indexErr)
	}
	return theIndex
}

// moduleRoot is the nearest directory above the working directory that
// holds a go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

func buildIndex() (*index, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ix := &index{root: root, pkgs: map[string]*pkgInfo{}, byName: map[string][]*pkgInfo{},
		fileNames: map[string]bool{}, top: map[string]bool{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			ix.module = strings.TrimSpace(m)
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if filepath.Dir(path) == root {
			ix.top[d.Name()] = true
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		ix.fileNames[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		f := &srcFile{path: filepath.ToSlash(rel), src: src, test: strings.HasSuffix(path, "_test.go")}
		ix.files = append(ix.files, f)
		file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.add(f, file)
		return nil
	})
	return ix, err
}

// add records file's package-level names, type members and imports.
func (ix *index) add(f *srcFile, file *ast.File) {
	path := ix.module
	if dir := pathDir(f.path); dir != "" {
		path += "/" + dir
	}
	p := ix.pkgs[path]
	if p == nil {
		p = &pkgInfo{names: map[string]bool{}, types: map[string]*typeInfo{}, imports: map[string]bool{}}
		ix.pkgs[path] = p
	}
	if name := strings.TrimSuffix(file.Name.Name, "_test"); p.name == "" {
		p.name = name
		ix.byName[name] = append(ix.byName[name], p)
	}
	if !f.test {
		for _, imp := range file.Imports {
			p.imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	typ := func(name string) *typeInfo {
		ti := p.types[name]
		if ti == nil {
			ti = &typeInfo{members: map[string]bool{}}
			p.types[name] = ti
		}
		return ti
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
			} else if recv := baseTypeName(d.Recv.List[0].Type); recv != "" {
				typ(recv).members[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					ti := typ(s.Name.Name)
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							ti.members[n.Name] = true
						}
						if len(fld.Names) == 0 {
							if e := baseTypeName(fld.Type); e != "" {
								ti.members[e] = true
								ti.embedded = append(ti.embedded, e)
							}
						}
					}
				}
			}
		}
	}
}

// baseTypeName is the name of the named type expr refers to, with any
// pointer, type arguments or package qualifier taken off.
func baseTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// pathDir is the directory part of a slash-separated path.
func pathDir(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return ""
}

func TestIndexSeesTheModule(t *testing.T) {
	ix := moduleIndex(t)
	core := ix.pkgs[ix.module+"/internal/core"]
	if core == nil || core.name != "core" || !core.names["New"] || !core.has("Heap", "Release") {
		t.Fatalf("the index lacks core.New or (*core.Heap).Release: %+v", core)
	}
	if h := ix.pkgs[ix.module+"/internal/harness"]; h == nil || !h.imports[ix.module+"/internal/core"] {
		t.Fatal("the index lacks harness's import of core")
	}
}
