package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader turns a module checkout into type-checked syntax without
// golang.org/x/tools: it walks the module for package directories, filters
// files through the stdlib build-constraint matcher, parses them with
// comments, and type-checks in dependency order. Imports inside the module
// resolve to our own loaded packages; everything else (the standard
// library) resolves from the compiler's export data, located by one
// `go list -export -deps` over exactly the non-module paths the parsed
// files import. go list therefore never compiles module code: a module
// package that does not type-check still reaches go/types and is reported
// from there.

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path, e.g. cmfl/internal/fl
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// funcRef locates a function declaration for the cross-package callee scan:
// the syntax plus the package whose type info and suppressions govern it.
type funcRef struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Module is the loaded view of the repository: every package reachable from
// the requested patterns, plus a module-wide index from function objects to
// their declarations (the one-level-deep callee scan needs bodies from
// other packages).
type Module struct {
	RootDir string
	Path    string // module path from go.mod
	Fset    *token.FileSet
	Pkgs    map[string]*Package

	funcDecls map[*types.Func]funcRef

	cgOnce sync.Once
	cg     *CallGraph

	sumOnce sync.Once
	sums    map[*types.Func]*EffectSummary

	suppOnce sync.Once
	supp     *suppressionIndex

	recvOnce sync.Once
	received map[types.Object]bool
}

// Suppressions returns the module-wide //cmfl:lint-ignore index, built once
// and shared by concurrent passes. Malformed markers are reported by the
// driver, not here.
func (m *Module) Suppressions() *suppressionIndex {
	m.suppOnce.Do(func() {
		m.supp = newSuppressionIndex()
		paths := make([]string, 0, len(m.Pkgs))
		for p := range m.Pkgs {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			for _, f := range m.Pkgs[p].Files {
				m.supp.addFile(m.Fset, f)
			}
		}
	})
	return m.supp
}

// FuncDecl returns the declaration of a module function (nil when fn is
// from outside the module, has no body, or was not loaded).
func (m *Module) FuncDecl(fn *types.Func) (*ast.FuncDecl, *Package) {
	ref, ok := m.funcDecls[fn]
	if !ok {
		return nil, nil
	}
	return ref.Decl, ref.Pkg
}

// loader carries the state of one Load call.
type loader struct {
	mod     *Module
	ctx     build.Context
	parsed  map[string]*Package // parsed module packages, Types still nil
	std     map[string]bool     // non-module import paths of parsed files
	gc      types.Importer      // export-data importer for the std paths
	loading map[string]bool     // import cycle detection
}

// Load type-checks the packages matching patterns, which may be `./...`,
// directory paths (absolute or relative to dir), or import paths within the
// module. It returns the matched target packages in deterministic order;
// dependencies inside the module are loaded too (reachable via Module) but
// not returned as targets. testdata directories are skipped by `...`
// expansion yet loadable when named explicitly — that is how the analyzer
// fixtures are exercised.
func Load(dir string, patterns []string) ([]*Package, *Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		mod: &Module{
			RootDir:   root,
			Path:      modPath,
			Fset:      fset,
			Pkgs:      make(map[string]*Package),
			funcDecls: make(map[*types.Func]funcRef),
		},
		ctx:     build.Default,
		parsed:  make(map[string]*Package),
		std:     make(map[string]bool),
		loading: make(map[string]bool),
	}

	paths, err := ld.expand(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range paths {
		if err := ld.parse(p); err != nil {
			return nil, nil, err
		}
	}
	exports, err := listExports(root, ld.std)
	if err != nil {
		return nil, nil, err
	}
	ld.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(file)
	})
	var targets []*Package
	for _, p := range paths {
		pkg, err := ld.check(p)
		if err != nil {
			return nil, nil, err
		}
		targets = append(targets, pkg)
	}
	return targets, ld.mod, nil
}

// listExports runs `go list -export -deps` once over the given non-module
// import paths and maps each listed package to its export data file. A
// path go list cannot resolve fails the load with go list's own message,
// which names it. GOPROXY=off keeps a stray import from reaching the
// network.
func listExports(root string, paths map[string]bool) (map[string]string, error) {
	exports := make(map[string]string)
	if len(paths) == 0 {
		return exports, nil
	}
	list := make([]string, 0, len(paths))
	for p := range paths {
		list = append(list, p)
	}
	sort.Strings(list)
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "--"}, list...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) && len(exit.Stderr) > 0 {
			err = errors.New(strings.TrimSpace(string(exit.Stderr)))
		}
		return nil, fmt.Errorf("lint: resolving imports: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

// findModule walks up from dir to the enclosing go.mod and reads the module
// path from its `module` directive.
func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					mp := strings.TrimSpace(rest)
					if mp == "" {
						break
					}
					return d, strings.Trim(mp, `"`), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module directive in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expand resolves CLI patterns into module import paths.
func (ld *loader) expand(dir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := ld.walkModule()
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			base, err := ld.dirToImportPath(dir, strings.TrimSuffix(pat, "/..."))
			if err != nil {
				return nil, err
			}
			paths, err := ld.walkModule()
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				if p == base || strings.HasPrefix(p, base+"/") {
					add(p)
				}
			}
		default:
			p, err := ld.dirToImportPath(dir, pat)
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	return out, nil
}

// dirToImportPath maps a directory argument (or an in-module import path)
// to the module import path.
func (ld *loader) dirToImportPath(dir, arg string) (string, error) {
	mod := ld.mod
	if arg == mod.Path || strings.HasPrefix(arg, mod.Path+"/") {
		return arg, nil
	}
	abs := arg
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(dir, arg)
	}
	abs = filepath.Clean(abs)
	rel, err := filepath.Rel(mod.RootDir, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("lint: %s is outside module %s", arg, mod.RootDir)
	}
	if rel == "." {
		return mod.Path, nil
	}
	return mod.Path + "/" + filepath.ToSlash(rel), nil
}

// walkModule lists the import paths of every buildable package in the
// module, skipping testdata, vendor and hidden directories like the go
// tool's `./...` expansion.
func (ld *loader) walkModule() ([]string, error) {
	var paths []string
	root := ld.mod.RootDir
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ok, err := ld.hasBuildableGo(path)
		if err != nil {
			return err
		}
		if ok {
			p, err := ld.dirToImportPath(root, path)
			if err != nil {
				return err
			}
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// hasBuildableGo reports whether dir contains at least one non-test Go file
// that passes the build constraints of the current platform.
func (ld *loader) hasBuildableGo(dir string) (bool, error) {
	files, err := ld.listGoFiles(dir)
	if err != nil {
		return false, err
	}
	return len(files) > 0, nil
}

// listGoFiles returns the buildable non-test Go files of dir, sorted.
func (ld *loader) listGoFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, err := ld.ctx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: %s/%s: %w", dir, name, err)
		}
		if match {
			files = append(files, name)
		}
	}
	sort.Strings(files)
	return files, nil
}

// parse reads one module package and, recursively, its module-internal
// imports into ld.parsed, collecting every other import path into ld.std.
func (ld *loader) parse(importPath string) error {
	if _, ok := ld.parsed[importPath]; ok {
		return nil
	}
	if ld.loading[importPath] {
		return fmt.Errorf("lint: import cycle through %s", importPath)
	}
	ld.loading[importPath] = true
	defer delete(ld.loading, importPath)

	dir, err := ld.importPathToDir(importPath)
	if err != nil {
		return err
	}
	names, err := ld.listGoFiles(dir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.mod.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !ld.inModule(p) {
				ld.std[p] = true
			} else if err := ld.parse(p); err != nil {
				return err
			}
		}
	}
	ld.parsed[importPath] = &Package{Path: importPath, Dir: dir, Files: files}
	return nil
}

// check type-checks one parsed package after its module-internal imports,
// registering it (and its function declarations) on the Module.
func (ld *loader) check(importPath string) (*Package, error) {
	if pkg, ok := ld.mod.Pkgs[importPath]; ok {
		return pkg, nil
	}
	// Check module imports first, so a failing one is reported as its own
	// type-checking error rather than through this package's importer.
	pkg := ld.parsed[importPath]
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); ld.inModule(p) {
				if _, err := ld.check(p); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFunc(ld.importFor)}
	tpkg, err := conf.Check(importPath, ld.mod.Fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg.Types, pkg.Info = tpkg, info
	ld.mod.Pkgs[importPath] = pkg

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				ld.mod.funcDecls[fn] = funcRef{Decl: fd, Pkg: pkg}
			}
		}
	}
	return pkg, nil
}

// inModule reports whether an import path names a package of the module.
func (ld *loader) inModule(path string) bool {
	return path == ld.mod.Path || strings.HasPrefix(path, ld.mod.Path+"/")
}

// importPathToDir maps a module import path to its directory.
func (ld *loader) importPathToDir(importPath string) (string, error) {
	mod := ld.mod
	if importPath == mod.Path {
		return mod.RootDir, nil
	}
	rel, ok := strings.CutPrefix(importPath, mod.Path+"/")
	if !ok {
		return "", fmt.Errorf("lint: %s is not in module %s", importPath, mod.Path)
	}
	return filepath.Join(mod.RootDir, filepath.FromSlash(rel)), nil
}

// importFor is the types.Importer bridging module-internal imports to our
// own loader and everything else to the export-data importer.
func (ld *loader) importFor(path string) (*types.Package, error) {
	if ld.inModule(path) {
		pkg, err := ld.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.gc.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
