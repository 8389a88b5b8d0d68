package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, type-checked module package.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects type-checker complaints. The driver treats a
	// non-empty slice as fatal: analyzers must run over fully resolved
	// types or their silence proves nothing.
	TypeErrors []error
}

// A Module is the whole loaded module: every non-test package below Root,
// type-checked against each other and the standard library.
type Module struct {
	Root     string // absolute path of the directory holding go.mod
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // sorted by import path
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses and type-checks every non-test package under root.
// Test files (_test.go) and testdata/vendor/hidden directories are skipped:
// the determinism contract binds shipped code; tests exercise it.
func LoadModule(root string) (*Module, error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*Package, len(dirs))
	for _, dir := range dirs {
		pkg, err := parseDir(mod.Fset, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable non-test Go files
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			pkg.PkgPath = modPath
		} else {
			pkg.PkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		byPath[pkg.PkgPath] = pkg
		mod.Packages = append(mod.Packages, pkg)
	}
	sort.Slice(mod.Packages, func(i, j int) bool { return mod.Packages[i].PkgPath < mod.Packages[j].PkgPath })

	imp := &moduleImporter{
		mod:      mod,
		byPath:   byPath,
		std:      importer.ForCompiler(mod.Fset, "source", nil),
		checking: map[string]bool{},
	}
	for _, pkg := range mod.Packages {
		if err := imp.check(pkg); err != nil {
			return nil, err
		}
	}
	return mod, nil
}

// TypeErrors flattens every package's type errors.
func (m *Module) TypeErrors() []error {
	var out []error
	for _, pkg := range m.Packages {
		out = append(out, pkg.TypeErrors...)
	}
	return out
}

// packageDirs returns every directory under root that may hold a package.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of one directory that build on this
// platform as a package.
// Returns nil if the directory holds no such files.
func parseDir(fset *token.FileSet, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Build constraints decide, as for the compiler: of two files that
		// define one function for different platforms, only this one's.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// moduleImporter resolves module-internal imports by type-checking them
// from source in dependency order (with cycle detection) and delegates
// everything else — the standard library — to go/importer's source mode.
type moduleImporter struct {
	mod      *Module
	byPath   map[string]*Package
	std      types.Importer
	checking map[string]bool
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := mi.byPath[path]; ok {
		if mi.checking[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		if err := mi.check(pkg); err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return mi.std.Import(path)
}

// check type-checks pkg once, memoized.
func (mi *moduleImporter) check(pkg *Package) error {
	if pkg.Types != nil {
		return nil
	}
	mi.checking[pkg.PkgPath] = true
	defer delete(mi.checking, pkg.PkgPath)

	pkg.Info = NewInfo()
	conf := types.Config{
		Importer: mi,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkg.PkgPath, mi.mod.Fset, pkg.Files, pkg.Info)
	if tpkg == nil {
		return fmt.Errorf("analysis: type-checking %s: %v", pkg.PkgPath, err)
	}
	pkg.Types = tpkg
	return nil
}

// NewInfo allocates the types.Info maps every analyzer relies on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(rest); err == nil {
				rest = unq
			}
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}
