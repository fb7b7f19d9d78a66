package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLife proves that every goroutine the runtime packages spawn has a
// join: some path in the spawned body that a waiter can observe, so
// Shutdown/Close can actually wait for the goroutine instead of leaking
// it past teardown (where it races the next test, holds sockets open, or
// trips the race detector long after its parent returned).
//
// A spawn is joined — a subject — when the spawned body (followed
// transitively through module callees, but not into nested spawns — their
// joins are their own obligation) contains at least one of:
//
//   - waitgroup: a (*sync.WaitGroup).Done call — the classic wg.Wait join;
//   - done-channel: a send on, or close of, a channel the module receives
//     from somewhere — a completion signal with a waiter;
//
// and that same walk reaches no inescapable loop: a `for {}` or `for true
// {}` that nothing leaves (see loopHasExit). Such a goroutine never ends,
// so no evidence joins it — a Done deferred above a loop whose stop case
// only breaks out of a select is exactly how a leak hides behind a join.
// A goroutine that only observes a stop channel or a context can be told
// to stop but not waited for, so it is not joined.
//
// Spawns whose target cannot be resolved statically (function values,
// out-of-module callees) are findings: an unprovable join is treated as
// no join.
var GoLife = &Analyzer{
	Name: "golife",
	Doc:  "every goroutine spawned in the runtime packages must have a provable join (WaitGroup.Done or a done channel) and no loop it cannot leave",
	Run:  runGoLife,
}

// GoLifePackages are the packages whose goroutines must be joinable.
// (Var, not const: fixture tests extend it.)
var GoLifePackages = map[string]bool{
	"cmfl/internal/emu":       true,
	"cmfl/internal/emu/shard": true,
	"cmfl/internal/sim":       true,
	"cmfl/internal/telemetry": true,
}

func runGoLife(pass *Pass) {
	if !GoLifePackages[pass.Pkg.Path] {
		return
	}
	received := pass.Mod.receivedChans()
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, received, fd, g)
				return true
			})
		}
	}
}

// checkGoStmt classifies one spawn's join or reports its absence.
func checkGoStmt(pass *Pass, received map[types.Object]bool, fd *ast.FuncDecl, g *ast.GoStmt) {
	var body *ast.BlockStmt
	var bodyPkg *Package
	target := "function literal"
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		body, bodyPkg = lit.Body, pass.Pkg
	} else {
		fn := calleeFunc(pass.Pkg, g.Call)
		if fn == nil {
			pass.Reportf(g.Pos(), "%s spawns a goroutine through a function value: the join cannot be proven — spawn a named function or a literal with a visible join", fd.Name.Name)
			return
		}
		target = fn.Name()
		decl, declPkg := pass.Mod.FuncDecl(fn)
		if decl == nil || decl.Body == nil {
			pass.Reportf(g.Pos(), "%s spawns %s, which is outside the module: the join cannot be proven — wrap it in a literal with a visible join", fd.Name.Name, fn.FullName())
			return
		}
		body, bodyPkg = decl.Body, declPkg
	}
	search := &joinSearch{pass: pass, received: received, visited: make(map[*types.Func]bool)}
	search.scan(body, bodyPkg)
	switch {
	case search.loop != nil:
		loop := pass.Fset().Position(search.loop.Pos())
		pass.Reportf(g.Pos(), "%s spawns %s with no reachable exit: the infinite loop at %s:%d has no return, goto or break that leaves it, so nothing can join it", fd.Name.Name, target, shortFile(loop.Filename), loop.Line)
	case search.joined:
		pass.Subject()
	default:
		pass.Reportf(g.Pos(), "%s spawns %s with no provable join: no WaitGroup.Done, no send/close on a channel anyone receives — Shutdown/Close cannot wait for this goroutine", fd.Name.Name, target)
	}
}

// joinSearch walks a spawned body (and its module callees) once, for join
// evidence and for an inescapable loop.
type joinSearch struct {
	pass     *Pass
	received map[types.Object]bool // channels the module receives from
	visited  map[*types.Func]bool
	joined   bool         // join evidence found
	loop     *ast.ForStmt // the first inescapable loop found, which ends the walk
}

// scan walks body, recording join evidence until it meets an inescapable
// loop. Function literals are walked like the body around them: a deferred
// or called literal runs on this goroutine, its Done and its loops alike.
func (s *joinSearch) scan(body *ast.BlockStmt, pkg *Package) {
	var labeled *ast.LabeledStmt // the last labeled statement entered
	ast.Inspect(body, func(n ast.Node) bool {
		if s.loop != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			// A nested spawn's joins and loops belong to the nested
			// goroutine, not this one.
			return false
		case *ast.LabeledStmt:
			labeled = n
		case *ast.ForStmt:
			label := ""
			if labeled != nil && labeled.Stmt == n {
				label = labeled.Label.Name
			}
			if isInfiniteLoop(pkg, n) && !loopHasExit(n, label) {
				s.loop = n
				return false
			}
		case *ast.SendStmt:
			s.joined = s.joined || s.isReceived(pkg, n.Chan)
		case *ast.CallExpr:
			s.classifyCall(pkg, n)
		}
		return true
	})
}

// isReceived reports whether ch names a channel the module receives from:
// a send on or close of it is a done signal with a waiter.
func (s *joinSearch) isReceived(pkg *Package, ch ast.Expr) bool {
	obj := chanObjOf(pkg, ch)
	return obj != nil && s.received[obj]
}

// classifyCall records a call's join evidence, descending into module
// callees.
func (s *joinSearch) classifyCall(pkg *Package, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.ObjectOf(id).(*types.Builtin); ok {
			if b.Name() == "close" && len(call.Args) == 1 {
				s.joined = s.joined || s.isReceived(pkg, call.Args[0])
			}
			return
		}
	}
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return
	}
	if fn.FullName() == "(*sync.WaitGroup).Done" {
		s.joined = true
		return
	}
	if s.visited[fn] {
		return
	}
	s.visited[fn] = true
	if decl, declPkg := s.pass.Mod.FuncDecl(fn); decl != nil && decl.Body != nil {
		s.scan(decl.Body, declPkg)
	}
}

// isInfiniteLoop reports `for { ... }` and `for true { ... }`.
func isInfiniteLoop(pkg *Package, loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return true
	}
	tv, ok := pkg.Info.Types[loop.Cond]
	return ok && tv.Value != nil && tv.Value.String() == "true"
}

// loopHasExit reports whether control can leave loop (named label, or ""
// when it has none) other than by panicking. The exits are a return; a
// goto; an unlabeled break that is not inside a nested for, range, select
// or switch (those only leave the nested statement); a labeled break whose
// label is the loop's or an enclosing statement's; and a labeled continue
// of an enclosing loop. Function literals are skipped: their control flow
// is their own.
func loopHasExit(loop *ast.ForStmt, label string) bool {
	inner := make(map[string]bool) // labels declared inside the loop body
	var exits func(root ast.Node, bare bool) bool
	exits = func(root ast.Node, bare bool) bool {
		found := false
		ast.Inspect(root, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.LabeledStmt:
				inner[n.Label.Name] = true
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if bare {
					found = exits(n, false) // an unlabeled break in here leaves n only
					return false
				}
			case *ast.ReturnStmt:
				found = true
			case *ast.BranchStmt:
				switch {
				case n.Tok == token.GOTO:
					found = true
				case n.Label == nil:
					found = bare && n.Tok == token.BREAK
				case inner[n.Label.Name]:
					// targets a statement inside the loop
				case n.Tok == token.BREAK:
					found = true
				default:
					found = n.Label.Name != label // continue of an enclosing loop
				}
			}
			return !found
		})
		return found
	}
	return exits(loop.Body, true)
}

// receivedChans indexes, once per module (concurrent passes share it), the
// channel objects anyone receives from.
func (m *Module) receivedChans() map[types.Object]bool {
	m.recvOnce.Do(func() {
		m.received = make(map[types.Object]bool)
		for _, pkg := range m.Pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					var ch ast.Expr
					switch n := n.(type) {
					case *ast.UnaryExpr:
						if n.Op == token.ARROW {
							ch = n.X
						}
					case *ast.RangeStmt:
						if t := pkg.Info.TypeOf(n.X); t != nil {
							if _, ok := t.Underlying().(*types.Chan); ok {
								ch = n.X
							}
						}
					}
					if obj := chanObjOf(pkg, ch); obj != nil {
						m.received[obj] = true
					}
					return true
				})
			}
		}
	})
	return m.received
}

// chanObjOf resolves a channel expression to the variable or field object
// it names, when it names one directly.
func chanObjOf(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pkg.Info.ObjectOf(e)
	case *ast.SelectorExpr:
		return pkg.Info.ObjectOf(e.Sel)
	}
	return nil
}
