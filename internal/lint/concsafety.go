package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ConcSafety guards the concurrent core of the repository — the emulator's
// accept/read/admit goroutines and the telemetry registry — with two
// whole-module checks built on the call graph and effect summaries:
//
//  1. Shared-field writes. A struct field is shared when no single
//     goroutine origin covers all of its write sites (the intersection of
//     the writers' origin sets is empty); every write to a shared field
//     must then hold a write-locked mutex rooted at the same receiver
//     (inferred by the must-hold lock tracker), or the field must be a
//     sync/atomic type. Origins are the synthetic main context plus one
//     per `go` statement; a function reachable from several origins
//     carries them all.
//
//  2. Locks across blocking operations. A mutex provably held at a
//     statement must not span channel sends/receives, defaultless selects,
//     time.Sleep, interface-typed net/io reads and writes, or calls to
//     module functions that transitively block — a parked goroutine that
//     owns the emulator's round lock stalls every connection.
//
// Both checks are scoped to ConcurrencyPackages; findings elsewhere would
// mostly restate Go folklore, here they break the chaos suite. Each shared
// field whose writes are all guarded, and each body whose critical
// sections never block, is a subject.
var ConcSafety = &Analyzer{
	Name: "concsafety",
	Doc:  "shared fields need a guarding mutex or atomic; held mutexes must not span blocking operations",
	Run:  runConcSafety,
}

// ConcurrencyPackages are the module packages whose goroutine discipline is
// enforced. (Var, not const: the fixture tests extend it.)
var ConcurrencyPackages = map[string]bool{
	"cmfl/internal/emu":       true,
	"cmfl/internal/emu/shard": true,
	"cmfl/internal/telemetry": true,
}

func runConcSafety(pass *Pass) {
	if !ConcurrencyPackages[pass.Pkg.Path] {
		return
	}
	checkSharedFields(pass)
	checkLockAcrossBlocking(pass)
}

// fieldWrite is one assignment/increment of a struct field somewhere in the
// module.
type fieldWrite struct {
	field   *types.Var
	pos     token.Pos
	ctx     originSet
	guarded bool
}

// checkSharedFields implements check 1 for fields declared in pass.Pkg,
// collecting write sites module-wide (an importer may mutate our structs).
func checkSharedFields(pass *Pass) {
	g := pass.Mod.CallGraph()
	writes := make(map[*types.Var][]fieldWrite)

	var pkgPaths []string
	for p := range pass.Mod.Pkgs {
		pkgPaths = append(pkgPaths, p)
	}
	sort.Strings(pkgPaths)
	for _, p := range pkgPaths {
		pkg := pass.Mod.Pkgs[p]
		for _, f := range pkg.Files {
			if isGenerated(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				collectFieldWrites(pass, g, pkg, fn, fd, writes)
			}
		}
	}

	var fields []*types.Var
	for field := range writes {
		fields = append(fields, field)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })

	for _, field := range fields {
		ws := writes[field]
		// Shared iff no single origin covers every write site.
		common := ws[0].ctx.clone()
		union := ws[0].ctx.clone()
		for _, w := range ws[1:] {
			common.intersect(w.ctx)
			union.union(w.ctx)
		}
		if !common.empty() {
			continue
		}
		descs := strings.Join(g.OriginDescs(union), ", ")
		pass.proveClean(func() {
			for _, w := range ws {
				if !w.guarded {
					pass.Reportf(w.pos, "field %s is written from multiple goroutines (%s) without a guarding mutex: lock it, make it atomic, or justify with //cmfl:lint-ignore concsafety",
						fieldDisplayName(pass.Pkg, field), descs)
				}
			}
		})
	}
}

// collectFieldWrites runs the lock tracker over fd's body and each function
// literal inside it, recording every write to a field declared in pass.Pkg.
func collectFieldWrites(pass *Pass, g *CallGraph, pkg *Package, fn *types.Func, fd *ast.FuncDecl, writes map[*types.Var][]fieldWrite) {
	declCtx := g.Contexts(fn)
	if declCtx.empty() {
		// Unreachable by the static analysis (e.g. only called through an
		// interface): attribute to main, the conservative single context.
		declCtx = newOriginSet(len(g.Origins))
		declCtx.add(0)
	}

	record := func(stmt ast.Stmt, held lockState, ctx originSet) {
		for _, wr := range stmtFieldWrites(pkg, stmt) {
			field := wr.field
			if field.Pkg() == nil || field.Pkg().Path() != pass.Pkg.Path {
				continue
			}
			if t := named(field.Type()); strings.HasPrefix(t, "sync/atomic.") || strings.HasPrefix(t, "sync.") {
				continue // atomics guard themselves; sync primitives are set up once
			}
			writes[field] = append(writes[field], fieldWrite{
				field:   field,
				pos:     wr.pos,
				ctx:     ctx,
				guarded: writeGuarded(held, wr.base),
			})
		}
	}

	trackLocks(pkg, fd.Body, func(stmt ast.Stmt, held lockState) {
		record(stmt, held, declCtx)
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ctx := declCtx
		if o := spawnOriginOf(g, pkg, lit); o != nil {
			ctx = newOriginSet(len(g.Origins))
			ctx.add(o.Index)
		}
		trackLocks(pkg, lit.Body, func(stmt ast.Stmt, held lockState) {
			record(stmt, held, ctx)
		})
		return true
	})
}

// spawnOriginOf returns the goroutine origin whose spawned literal is lit.
func spawnOriginOf(g *CallGraph, pkg *Package, lit *ast.FuncLit) *Origin {
	for _, o := range g.Origins {
		if o.Pkg == pkg && o.Lit == lit {
			return o
		}
	}
	return nil
}

// rawWrite is a field write before context/guard classification.
type rawWrite struct {
	field *types.Var
	pos   token.Pos
	base  types.Object
}

// stmtFieldWrites extracts the struct-field writes performed directly by
// stmt (assignments and increments; nested statements report themselves).
func stmtFieldWrites(pkg *Package, stmt ast.Stmt) []rawWrite {
	var out []rawWrite
	add := func(lhs ast.Expr) {
		field, base := writtenField(pkg, lhs)
		if field != nil {
			out = append(out, rawWrite{field: field, pos: lhs.Pos(), base: base})
		}
	}
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			add(lhs)
		}
	case *ast.IncDecStmt:
		add(s.X)
	}
	return out
}

// writtenField resolves an assignment LHS to the struct field it mutates:
// `x.f = v`, `x.f[k] = v`, `x.f += v`, `x.f++`, `*x.f = v` all count —
// element and map writes race exactly like direct stores. Returns the field
// and the root object of the receiver chain.
func writtenField(pkg *Package, lhs ast.Expr) (*types.Var, types.Object) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	v, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil, nil
	}
	return v, rootObject(pkg, sel.X)
}

// writeGuarded reports whether the held set licenses a write rooted at
// base: a write-locked mutex on the same receiver, or a bare (package- or
// function-level) mutex, which guards whatever its critical section spans.
func writeGuarded(held lockState, base types.Object) bool {
	for key, l := range held {
		if !l.write {
			continue
		}
		if !strings.Contains(key, ".") {
			return true
		}
		if l.base != nil && l.base == base {
			return true
		}
	}
	return false
}

// fieldDisplayName renders "Server.conns" by locating the named type whose
// struct carries the field.
func fieldDisplayName(pkg *Package, field *types.Var) string {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn.Name() + "." + field.Name()
			}
		}
	}
	return field.Name()
}

// checkLockAcrossBlocking implements check 2 over the bodies of pass.Pkg.
func checkLockAcrossBlocking(pass *Pass) {
	sums := pass.Mod.Summaries()
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBodyBlocking(pass, sums, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBodyBlocking(pass, sums, lit.Body)
				}
				return true
			})
		}
	}
}

// checkBodyBlocking reports each statement of body that blocks while a mutex
// is held; a body with critical sections none of which blocks is a subject.
func checkBodyBlocking(pass *Pass, sums map[*types.Func]*EffectSummary, body *ast.BlockStmt) {
	locked, blocked := false, false
	trackLocks(pass.Pkg, body, func(stmt ast.Stmt, held lockState) {
		if len(held) == 0 {
			return
		}
		locked = true
		pos, what := stmtBlocks(pass, sums, stmt)
		if what == "" {
			return
		}
		blocked = true
		pass.Reportf(pos, "%s held across %s: shrink the critical section or justify with //cmfl:lint-ignore concsafety",
			heldNames(held), what)
	})
	if locked && !blocked {
		pass.Subject()
	}
}

// stmtBlocks classifies the blocking behavior of stmt's own work (nested
// statements report themselves through their own callbacks).
func stmtBlocks(pass *Pass, sums map[*types.Func]*EffectSummary, stmt ast.Stmt) (token.Pos, string) {
	switch s := stmt.(type) {
	case *ast.SendStmt:
		return s.Pos(), "channel send"
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			return s.Pos(), "select without default"
		}
		return token.NoPos, ""
	case *ast.RangeStmt:
		if t := pass.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return s.Pos(), "range over channel"
			}
		}
		return token.NoPos, ""
	}
	var pos token.Pos
	var what string
	for _, e := range stmtExprs(stmt) {
		ast.Inspect(e, func(n ast.Node) bool {
			if what != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pos, what = n.Pos(), "channel receive"
					return false
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.Pkg, n)
				if fn == nil {
					return true
				}
				if w := blockingCall(fn); w != "" {
					pos, what = n.Pos(), w
					return false
				}
				if s, ok := sums[fn]; ok {
					if b := s.Blocks(); b != nil {
						position := pass.Fset().Position(b.W.Pos)
						pos = n.Pos()
						what = fmt.Sprintf("call to %s, which blocks (%s at %s:%d)", fn.Name(), b.W.What, shortFile(position.Filename), position.Line)
						return false
					}
				}
			}
			return true
		})
		if what != "" {
			break
		}
	}
	return pos, what
}

// stmtExprs returns the expressions stmt evaluates directly (sub-statements
// excluded: they get their own tracker callbacks).
func stmtExprs(stmt ast.Stmt) []ast.Expr {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return []ast.Expr{s.X}
	case *ast.AssignStmt:
		return append(append([]ast.Expr{}, s.Rhs...), s.Lhs...)
	case *ast.ReturnStmt:
		return s.Results
	case *ast.IfStmt:
		return []ast.Expr{s.Cond}
	case *ast.ForStmt:
		if s.Cond != nil {
			return []ast.Expr{s.Cond}
		}
	case *ast.SwitchStmt:
		if s.Tag != nil {
			return []ast.Expr{s.Tag}
		}
	case *ast.IncDecStmt:
		return []ast.Expr{s.X}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			var out []ast.Expr
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					out = append(out, vs.Values...)
				}
			}
			return out
		}
	}
	return nil
}

// heldNames renders the held mutex set deterministically ("s.mu", or
// "a.mu, b.mu" when several are held).
func heldNames(held lockState) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
