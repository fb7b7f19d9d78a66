package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// SeedTaint enforces the stream-derivation discipline that keeps every
// random draw in the engines reproducible AND independent: all randomness
// in the seed-scoped packages must derive, transitively, from
// xrand.Derive(seed, purpose, id) with a distinct compile-time purpose
// string per derivation site.
//
// Four rules:
//
//	R1  Raw sources are banned: math/rand.New/NewSource (and the v2
//	    constructors), and xrand.New outside package xrand itself. A raw
//	    source keyed on an arbitrary integer collides silently with every
//	    other stream keyed near it. So is the process-global math/rand
//	    source (rand.Float64, rand.Intn, …): it is seeded by nobody the
//	    run controls, and every draw shifts every later one.
//	R2  The purpose argument of xrand.Derive must be a compile-time
//	    constant string — a dynamic purpose defeats static collision
//	    checking and run-to-run auditability.
//	R3  Purpose strings must be unique across derivation sites
//	    module-wide (checked in the merge phase over per-package facts):
//	    two sites sharing a purpose produce correlated streams for equal
//	    ids — the subtlest way to break the paper's independence
//	    assumptions.
//	R4  Seeds stay whole: seed arithmetic feeding Derive's seed parameter
//	    is flagged (vary purpose/id instead), and a raw seed crossing an
//	    in-module package boundary as a plain integer argument is flagged
//	    unless the callee parameter provably flows only into blessed
//	    derivation positions (xrand.Derive/New seed slots, Seed config
//	    fields, or further blessed parameters). Composite-literal Seed
//	    fields are exempt: config structs are how seeds legitimately
//	    travel.
var SeedTaint = &Analyzer{
	Name:  "seedtaint",
	Doc:   "randomness in seed-scoped packages derives from xrand.Derive with unique constant purpose strings; raw seeds do not leak across packages",
	Run:   runSeedTaint,
	Merge: mergeSeedTaint,
}

// SeedTaintPackages are the packages under the stream-derivation contract.
// (Var, not const: the fixture tests extend it.)
var SeedTaintPackages = map[string]bool{
	"cmfl/internal/fl":    true,
	"cmfl/internal/mtl":   true,
	"cmfl/internal/emu":   true,
	"cmfl/internal/core":  true,
	"cmfl/internal/sim":   true,
	"cmfl/internal/xrand": true,
}

const xrandPkgPath = "cmfl/internal/xrand"

// rawRandConstructors are the banned source constructors (R1).
var rawRandConstructors = map[string]bool{
	"math/rand.New":           true,
	"math/rand.NewSource":     true,
	"math/rand/v2.New":        true,
	"math/rand/v2.NewPCG":     true,
	"math/rand/v2.NewChaCha8": true,
}

func runSeedTaint(pass *Pass) {
	if !SeedTaintPackages[pass.Pkg.Path] {
		return
	}
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkSeedCall(pass, fd, call)
				return true
			})
		}
	}
}

func checkSeedCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil {
		return
	}
	full := fn.FullName()

	// R1: raw math/rand sources.
	if rawRandConstructors[full] && !isXrandPackage(pass.Pkg.Path) {
		pass.Reportf(call.Pos(), "raw %s in %s: derive a stream with xrand.Derive(seed, purpose, id) instead", full, fd.Name.Name)
		return
	}
	// R1: the process-global source.
	if isGlobalRand(fn) {
		pass.Reportf(call.Pos(), "global math/rand source (%s) in %s: use a seeded stream (internal/xrand)", fn.Name(), fd.Name.Name)
		return
	}
	// R1: xrand.New bypasses purpose-keyed derivation outside xrand itself.
	if isXrandFunc(fn, "New") && !isXrandPackage(pass.Pkg.Path) {
		pass.Reportf(call.Pos(), "xrand.New bypasses stream derivation in %s: use xrand.Derive(seed, purpose, id) so the stream is purpose-keyed", fd.Name.Name)
		return
	}

	if isXrandDerive(fn) && len(call.Args) >= 2 {
		// R2: constant purpose.
		purpose, ok := constStringValue(pass.Pkg, call.Args[1])
		if !ok {
			pass.Reportf(call.Args[1].Pos(), "xrand.Derive purpose must be a compile-time constant string (dynamic purposes defeat collision checking)")
		} else {
			position := pass.Fset().Position(call.Pos())
			pass.Facts.Streams = append(pass.Facts.Streams, StreamFact{
				Purpose: purpose,
				File:    position.Filename,
				Line:    position.Line,
				Column:  position.Column,
			})
		}
		// R4: no seed arithmetic into the seed slot.
		if seedTaint(pass.Pkg, call.Args[0]) == TaintSeedArith {
			pass.Reportf(call.Args[0].Pos(), "seed arithmetic feeding xrand.Derive defeats stream independence: pass the root seed and vary purpose or id")
		} else if ok {
			pass.Subject()
		}
		return
	}

	// R4: raw seed crossing an in-module package boundary.
	if !pass.InModule(fn) || fn.Pkg() == nil || fn.Pkg().Path() == pass.Pkg.Path {
		return
	}
	for i, arg := range call.Args {
		if seedTaint(pass.Pkg, arg) == TaintNone || !isIntegerExpr(pass.Pkg, arg) {
			continue
		}
		if !blessedSeedParam(pass.Mod, fn, i, make(map[*types.Func]bool)) {
			pass.Reportf(arg.Pos(), "raw seed crosses the package boundary into %s.%s: derive the stream at the source or route it through a blessed deriver", fn.Pkg().Name(), fn.Name())
		}
	}
}

// isGlobalRand reports whether fn is a package-level math/rand (or
// math/rand/v2) function drawing from the process-global source.
// Constructors of explicit, seedable sources are fine here (the raw-source
// half of R1 owns them).
func isGlobalRand(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // method on an explicit *rand.Rand
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// isXrandDerive matches the purpose-keyed derivers: Derive, its
// compact-state sibling DeriveCompact and the Compact.Rederive method that
// re-points one at a new key share R2/R3/R4 and one purpose pool.
func isXrandDerive(fn *types.Func) bool {
	return isXrandFunc(fn, "Derive") || isXrandFunc(fn, "DeriveCompact") || isXrandFunc(fn, "Rederive")
}

// isXrandFunc matches the module's xrand package by path suffix so fixture
// copies of the package (testdata/src/.../xrand) bind the same rules.
func isXrandFunc(fn *types.Func, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return isXrandPackage(fn.Pkg().Path())
}

// isXrandPackage matches the real xrand package or a fixture copy of it.
func isXrandPackage(p string) bool {
	return p == xrandPkgPath || p == "xrand" || hasSuffixSegment(p, "xrand")
}

func hasSuffixSegment(path, seg string) bool {
	return len(path) > len(seg)+1 && path[len(path)-len(seg)-1] == '/' && path[len(path)-len(seg):] == seg
}

// blessedSeedParam reports whether every use of fn's i-th parameter flows
// only into derivation-blessed positions: xrand.Derive/New seed slots,
// composite-literal or assigned fields named like a seed, or the blessed
// parameter of a further call. Any other use (arithmetic, raw storage,
// rand constructors) taints the callee.
func blessedSeedParam(mod *Module, fn *types.Func, i int, visiting map[*types.Func]bool) bool {
	if visiting[fn] {
		return true // cycle: optimistic, the first frame judges the real uses
	}
	visiting[fn] = true
	decl, pkg := mod.FuncDecl(fn)
	if decl == nil || decl.Body == nil || decl.Type.Params == nil {
		return false // no body to vouch for the parameter's fate
	}
	param := paramIdentAt(decl, i)
	if param == nil {
		return false
	}
	obj := pkg.Info.Defs[param]
	if obj == nil {
		return false
	}

	ok := true
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		id, isIdent := n.(*ast.Ident)
		if !isIdent || pkg.Info.Uses[id] != obj {
			return true
		}
		if !blessedUse(mod, pkg, decl, id, visiting) {
			ok = false
		}
		return true
	})
	return ok
}

// paramIdentAt returns the identifier of the i-th (flattened) parameter.
func paramIdentAt(decl *ast.FuncDecl, i int) *ast.Ident {
	idx := 0
	for _, field := range decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			idx++ // unnamed parameter cannot be used; skip the slot
			continue
		}
		for _, name := range names {
			if idx == i {
				return name
			}
			idx++
		}
	}
	return nil
}

// blessedUse judges one occurrence of a seed parameter inside its function.
func blessedUse(mod *Module, pkg *Package, decl *ast.FuncDecl, id *ast.Ident, visiting map[*types.Func]bool) bool {
	path := enclosingPath(decl.Body, id.Pos())
	for k := len(path) - 1; k >= 0; k-- {
		switch parent := path[k].(type) {
		case *ast.CallExpr:
			argIdx := -1
			for j, a := range parent.Args {
				if containsPos(a, id.Pos()) {
					argIdx = j
					break
				}
			}
			if argIdx < 0 {
				return true // inside the Fun expression: a method call on something else
			}
			if tv, okT := pkg.Info.Types[parent.Fun]; okT && tv.IsType() {
				continue // conversion is transparent; keep climbing
			}
			callee := calleeFunc(pkg, parent)
			if callee == nil {
				return false
			}
			if isXrandDerive(callee) || isXrandFunc(callee, "New") {
				return argIdx == 0
			}
			return blessedSeedParam(mod, callee, argIdx, visiting)
		case *ast.KeyValueExpr:
			if key, okK := parent.Key.(*ast.Ident); okK && isSeedName(key.Name) {
				return true // config plumbing: Seed: seed
			}
			return false
		case *ast.AssignStmt:
			for j, rhs := range parent.Rhs {
				if containsPos(rhs, id.Pos()) && j < len(parent.Lhs) {
					if field, _ := writtenField(pkg, parent.Lhs[j]); field != nil && isSeedName(field.Name()) {
						return true // cfg.Seed = seed
					}
				}
			}
			return false
		case *ast.BinaryExpr, *ast.UnaryExpr, *ast.IndexExpr:
			return false // arithmetic or indexing: the seed is no longer whole
		}
	}
	return false
}

// enclosingPath returns the innermost-to-outermost chain of nodes strictly
// containing pos (excluding the identifier itself), innermost last.
func enclosingPath(root ast.Node, pos token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	// Drop the identifier itself if it landed at the end.
	if len(path) > 0 {
		if id, ok := path[len(path)-1].(*ast.Ident); ok && id.Pos() == pos {
			path = path[:len(path)-1]
		}
	}
	return path
}

func containsPos(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

func constStringValue(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// mergeSeedTaint is R3: purpose-string uniqueness across every analyzed
// package's derivation sites. The first site (in file:line order) owns the
// purpose; later sites are findings.
func mergeSeedTaint(mp *MergePass) {
	var all []StreamFact
	for _, t := range mp.Targets {
		all = append(all, t.Facts.Streams...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	first := make(map[string]StreamFact)
	for _, s := range all {
		prev, seen := first[s.Purpose]
		if !seen {
			first[s.Purpose] = s
			continue
		}
		if prev.File == s.File && prev.Line == s.Line && prev.Column == s.Column {
			continue // same site revisited (overlapping targets)
		}
		mp.Reportf(s.File, s.Line, s.Column,
			"stream purpose %q already used at %s:%d: purposes must be unique per derivation site or the streams collide",
			s.Purpose, shortFile(prev.File), prev.Line)
	}
}
