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
	"strings"

	"groupform/internal/gferr"
)

// A Package is one loaded, type-checked package. All packages loaded
// by one Loader share one FileSet.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of the enclosing module
// without the go tool: module-local imports are resolved by walking
// the module tree, standard-library imports are type-checked from
// GOROOT source (so the loader works offline and without compiled
// export data). Third-party imports are unsupported — the module is
// dependency-free by policy, and the loader failing loudly on a new
// external import is a feature.
type Loader struct {
	Fset   *token.FileSet
	module string // module path from go.mod
	root   string // module root directory
	std    types.Importer
	pkgs   map[string]*Package
	busy   map[string]bool // import-cycle detection
}

// NewLoader finds the enclosing module starting from dir ("" means
// the working directory) by walking up to the nearest go.mod.
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, fmt.Errorf("analysis: getwd: %w", err)
		}
		dir = wd
	}
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// The stdlib source importer consults go/build's default context;
	// with cgo disabled it selects the pure-Go files (netgo et al.),
	// which type-check without a C toolchain.
	build.Default.CgoEnabled = false
	return &Loader{
		Fset:   fset,
		module: module,
		root:   root,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
		busy:   map[string]bool{},
	}, nil
}

func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", fmt.Errorf("analysis: abs: %w", err)
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", gferr.BadConfigf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", gferr.BadConfigf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Load resolves patterns to module packages and type-checks them
// (plus their transitive module-local imports). Supported patterns:
// "./..." and "dir/..." for recursive walks, and plain directory
// paths, all relative to the module root. Returns the matched
// packages in deterministic (import-path) order; transitively loaded
// dependencies are type-checked but only returned when matched.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	if len(dirs) == 0 {
		return nil, gferr.BadConfigf("analysis: no packages match %q", patterns)
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir, l.pathForDir(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks the single package in dir under the given
// import path, regardless of where dir sits. Analyzer tests use this
// to load testdata packages under the real package paths their rules
// gate on.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: abs: %w", err)
	}
	return l.loadDir(abs, path)
}

// expand turns one pattern into absolute package directories.
func (l *Loader) expand(pat string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "." || pat == "" {
			pat = "."
		}
	}
	base := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
	if pat == "." {
		base = l.root
	}
	info, err := os.Stat(base)
	if err != nil || !info.IsDir() {
		return nil, gferr.BadConfigf("analysis: pattern %q: no such directory %s", pat, base)
	}
	if !recursive {
		if !l.hasGoFiles(base) {
			return nil, gferr.BadConfigf("analysis: pattern %q: no Go files in %s", pat, base)
		}
		return []string{base}, nil
	}
	var dirs []string
	err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if l.hasGoFiles(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walk %s: %w", base, err)
	}
	return dirs, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// pathForDir maps an absolute directory under the module root to its
// import path.
func (l *Loader) pathForDir(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// dirForPath maps a module-local import path to its directory.
func (l *Loader) dirForPath(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// loadDir parses and type-checks the package in dir, memoized by
// import path.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, gferr.BadConfigf("analysis: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: read %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, gferr.BadConfigf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		return l.importPkg(p)
	})}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importPkg resolves one import: module-local paths recurse through
// the loader, everything else goes to the GOROOT source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.loadDir(l.dirForPath(path), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
