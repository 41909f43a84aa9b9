package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// LoadModule parses and type-checks every package under root, which
// must be the module directory (it contains go.mod). Test files,
// testdata directories, hidden and underscore-prefixed entries are
// skipped. Every file parses into one FileSet; each module package is
// then type-checked exactly once, in import order, on GOMAXPROCS
// workers, with its module imports served from the packages already
// checked and standard-library imports through one source importer,
// so the load works offline with zero module dependencies. An import
// cycle among module packages is an error naming the packages on it.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	var units []*unit
	byPath := make(map[string]*unit)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		importPath := modPath
		if rel != "" {
			importPath = modPath + "/" + rel
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		u := &unit{rel: rel, dir: dir, importPath: importPath, files: files, done: make(chan struct{})}
		units = append(units, u)
		byPath[importPath] = u
	}
	for _, u := range units {
		seen := make(map[*unit]bool)
		for _, f := range u.files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if dep, ok := byPath[path]; ok && !seen[dep] {
					seen[dep] = true
					u.deps = append(u.deps, dep)
				}
			}
		}
	}
	order, err := importOrder(units)
	if err != nil {
		return nil, err
	}

	// Workers take units in import order and wait for each one's
	// module imports before checking it. The earliest unit in flight
	// has every import finished, so the pool always makes progress. A
	// unit whose import failed is skipped: its own error would only
	// repeat the import's.
	imp := &moduleImporter{units: byPath, std: importer.ForCompiler(fset, "source", nil)}
	work := make(chan *unit, len(order))
	for _, u := range order {
		work <- u
	}
	close(work)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(order)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				ok := true
				for _, d := range u.deps {
					<-d.done
					ok = ok && d.pkg != nil
				}
				if ok {
					u.pkg, u.err = checkPackage(fset, imp, u.dir, u.rel, u.importPath, u.files)
				}
				close(u.done)
			}
		}()
	}
	wg.Wait()

	for _, u := range order {
		if u.err != nil {
			return nil, u.err
		}
	}
	pkgs := make([]*Package, 0, len(units))
	for _, u := range units {
		pkgs = append(pkgs, u.pkg)
	}
	return pkgs, nil
}

// unit is one module package on its way through LoadModule.
type unit struct {
	rel, dir, importPath string
	files                []*ast.File
	deps                 []*unit       // module packages it imports
	done                 chan struct{} // closed once pkg and err are final
	pkg                  *Package      // nil when checking failed or was skipped
	err                  error
}

// importOrder sorts units so that each follows every module package it
// imports, or reports the first import cycle it finds.
func importOrder(units []*unit) ([]*unit, error) {
	const (
		unvisited = iota
		visiting
		visited
	)
	state := make(map[*unit]int, len(units))
	order := make([]*unit, 0, len(units))
	var stack []*unit
	var visit func(u *unit) error
	visit = func(u *unit) error {
		switch state[u] {
		case visited:
			return nil
		case visiting: // u is on the stack: the stack from u on is the cycle
			i := len(stack) - 1
			for stack[i] != u {
				i--
			}
			var names []string
			for _, s := range stack[i:] {
				names = append(names, s.importPath)
			}
			return fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(names, " -> "), u.importPath)
		}
		state[u] = visiting
		stack = append(stack, u)
		for _, d := range u.deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		stack = stack[:len(stack)-1]
		state[u] = visited
		order = append(order, u)
		return nil
	}
	for _, u := range units {
		if err := visit(u); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter serves module packages from the units LoadModule has
// already checked and everything else through the standard library's
// source importer, which is not safe for concurrent use and so runs
// under mu. Completed *types.Packages are immutable and safe to share.
type moduleImporter struct {
	units map[string]*unit // read-only while workers run
	mu    sync.Mutex
	std   types.Importer
}

// Import is only asked for a module package that the importing unit
// lists in deps, so that package's done channel is already closed and
// its pkg set.
func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if u, ok := im.units[path]; ok {
		return u.pkg.Pkg, nil
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.std.Import(path)
}

// parseDir parses the non-test Go files of one directory in filename
// order, returning nil when the directory holds none.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	return files, nil
}

// checkPackage type-checks one parsed package under importPath. The
// error of a failed check carries the first type error's position.
func checkPackage(fset *token.FileSet, imp types.Importer, dir, rel, importPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", dir, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
	}
	return &Package{Rel: rel, Path: importPath, Dir: dir, Fset: fset, Files: files, Pkg: tpkg, Info: info}, nil
}

// moduleDirs walks the module tree and returns every candidate package
// directory in sorted order, skipping testdata, hidden and underscore
// entries.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (LoadModule wants the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
