package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatSum proves the grouping-invariance contract for float accumulation.
// The headline guarantee — bit-identical results across reruns, shard
// counts, and the fl/sim/emu tiers — requires every float reduction to be
// either order-invariant (the exact accumulators in internal/emu/shard,
// which are also fl.Aggregator's FedAvg fold) or pinned to an order that is
// provably part of the algorithm's definition. In the packages that make that promise
// (FloatSumPackages), an order-sensitive accumulation inside a loop —
// `sum += x`, `sum = sum + x`, or a tensor.Axpy folding into a
// loop-invariant destination — is a finding unless
//
//   - it routes through shard.Accumulator (each Add/Merge/Round call is a
//     subject), or
//   - it carries //cmfl:order-pinned <reason> (on the statement, the line
//     above it, or any enclosing loop) AND the analyzer can prove every
//     enclosing loop drains in deterministic order: ranging over a slice,
//     array or integer is deterministic; ranging over a map or channel is
//     not, and neither is any loop whose body receives from a channel or
//     selects — there the accumulation order is arrival order.
//
// Element-wise writes (`delta[j] += x` under `for j := range`) address a
// different slot each iteration and are exempt: they are not reductions.
// A marker that covers no order-sensitive reduction is stale and reported:
// it outlived the code it pinned.
var FloatSum = &Analyzer{
	Name: "floatsum",
	Doc:  "order-sensitive float accumulation in grouping-invariance packages must use shard.Accumulator or a proven //cmfl:order-pinned annotation",
	Run:  runFloatSum,
}

// FloatSumPackages are the packages whose float reductions are part of the
// bit-reproducibility contract. (Var, not const: fixture tests extend it.)
var FloatSumPackages = map[string]bool{
	"cmfl/internal/emu":       true,
	"cmfl/internal/emu/shard": true,
	"cmfl/internal/sim":       true,
	"cmfl/internal/fl":        true,
}

// accumulatorPath is the exact-summation package; calls to its fold
// methods are the sanctioned order-invariant reduction.
const accumulatorPath = "cmfl/internal/emu/shard"

func runFloatSum(pass *Pass) {
	if !FloatSumPackages[pass.Pkg.Path] {
		return
	}
	for _, f := range pass.SourceFiles() {
		pins := collectOrderPins(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			v := &floatSumVisitor{pass: pass, pins: pins}
			ast.Walk(v, fd.Body)
		}
		for _, pin := range pins {
			if !pin.used {
				pass.Reportf(pin.pos, "//cmfl:order-pinned pins no order-sensitive reduction: delete the stale marker")
			}
		}
		countAccumulatorRoutings(pass, f)
	}
}

// orderPin is one parsed //cmfl:order-pinned marker; used is set once it
// covers a reduction.
type orderPin struct {
	pos  token.Pos
	used bool
}

// collectOrderPins indexes a file's order-pinned markers by line, reporting
// reasonless markers (the reason is the audit trail; without one the
// marker is a bare suppression in disguise).
func collectOrderPins(pass *Pass, f *ast.File) map[int]*orderPin {
	pins := make(map[int]*orderPin)
	for _, group := range f.Comments {
		for _, c := range group.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, markerOrderPinned)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
				continue
			}
			if strings.TrimSpace(rest) == "" {
				pass.Reportf(c.Pos(), "malformed //cmfl:order-pinned: want `//cmfl:order-pinned <reason>`")
				continue
			}
			pins[pass.Fset().Position(c.Pos()).Line] = &orderPin{pos: c.Pos()}
		}
	}
	return pins
}

// loopFrame is one enclosing loop during the walk, with the set of
// variables that take a fresh value each iteration (loop variables plus
// everything declared in the body so far).
type loopFrame struct {
	stmt ast.Stmt // *ast.ForStmt or *ast.RangeStmt
	vars map[types.Object]bool
}

// floatSumVisitor walks one function body maintaining the loop stack.
type floatSumVisitor struct {
	pass  *Pass
	pins  map[int]*orderPin
	loops []loopFrame
	stack []ast.Node
}

func (v *floatSumVisitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		top := v.stack[len(v.stack)-1]
		v.stack = v.stack[:len(v.stack)-1]
		switch top.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			v.loops = v.loops[:len(v.loops)-1]
		}
		return nil
	}
	v.stack = append(v.stack, n)
	switch n := n.(type) {
	case *ast.ForStmt:
		frame := loopFrame{stmt: n, vars: make(map[types.Object]bool)}
		if init, ok := n.Init.(*ast.AssignStmt); ok {
			v.defineAssigned(frame.vars, init)
		}
		v.loops = append(v.loops, frame)
	case *ast.RangeStmt:
		frame := loopFrame{stmt: n, vars: make(map[types.Object]bool)}
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if obj := v.pass.ObjectOf(id); obj != nil {
					frame.vars[obj] = true
				}
			}
		}
		v.loops = append(v.loops, frame)
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE && len(v.loops) > 0 {
			v.defineAssigned(v.loops[len(v.loops)-1].vars, n)
		}
		v.checkAssign(n)
	case *ast.ValueSpec:
		if len(v.loops) > 0 {
			frame := &v.loops[len(v.loops)-1]
			for _, id := range n.Names {
				if obj := v.pass.ObjectOf(id); obj != nil {
					frame.vars[obj] = true
				}
			}
		}
	case *ast.FuncLit:
		// A closure's parameters rebind per invocation; treat them as
		// per-iteration state of the innermost loop so worker-fanout
		// bodies (`go func(lo, hi int) {...}(...)`) are not misread as
		// loop-invariant accumulation targets.
		if len(v.loops) > 0 {
			frame := &v.loops[len(v.loops)-1]
			for _, field := range n.Type.Params.List {
				for _, id := range field.Names {
					if obj := v.pass.ObjectOf(id); obj != nil {
						frame.vars[obj] = true
					}
				}
			}
		}
	case *ast.CallExpr:
		v.checkAxpy(n)
	}
	return v
}

func (v *floatSumVisitor) defineAssigned(vars map[types.Object]bool, assign *ast.AssignStmt) {
	if assign.Tok != token.DEFINE {
		return
	}
	for _, lhs := range assign.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := v.pass.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
}

// checkAssign flags `sum += x`, `sum -= x`, and `sum = sum ± x` on float
// lvalues that are invariant across every enclosing loop.
func (v *floatSumVisitor) checkAssign(n *ast.AssignStmt) {
	if len(v.loops) == 0 || len(n.Lhs) != 1 {
		return
	}
	lhs := n.Lhs[0]
	if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN {
		// The spelled-out recurrence `sum = sum + x` / `sum = sum - x`.
		if n.Tok != token.ASSIGN {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok || len(n.Rhs) != 1 {
			return
		}
		bin, ok := ast.Unparen(n.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return
		}
		obj := v.pass.ObjectOf(id)
		if obj == nil || !(v.sameObject(bin.X, obj) || (bin.Op == token.ADD && v.sameObject(bin.Y, obj))) {
			return
		}
	}
	if !isFloatType(v.pass.TypeOf(lhs)) {
		return
	}
	v.flag(n.Pos(), lhs, "float accumulation "+renderLHS(lhs))
}

// checkAxpy flags tensor.Axpy folds into a loop-invariant destination —
// the vectorized form of `sum += x`.
func (v *floatSumVisitor) checkAxpy(call *ast.CallExpr) {
	if len(v.loops) == 0 || len(call.Args) != 3 {
		return
	}
	fn := calleeFunc(v.pass.Pkg, call)
	if fn == nil || fn.FullName() != "cmfl/internal/tensor.Axpy" {
		return
	}
	v.flag(call.Pos(), call.Args[2], "tensor.Axpy into "+renderLHS(call.Args[2]))
}

// flag reports one order-sensitive accumulation, honoring a proven
// //cmfl:order-pinned marker. The hazard loops are the frames across which
// the target is invariant: frames deeper than the one holding the target's
// own per-iteration state. A target that is per-iteration state of the
// innermost loop (delta[j] under `for j`, a body-local accumulator) has no
// hazard frames and is exempt — it is not a cross-iteration reduction.
func (v *floatSumVisitor) flag(pos token.Pos, target ast.Expr, what string) {
	hazard := v.loops[v.innermostVarFrame(target)+1:]
	if len(hazard) == 0 {
		return
	}
	if pin := v.pinAt(pos); pin != nil {
		pin.used = true
		if bad, why := nonDeterministicLoop(v.pass, hazard); bad != nil {
			loopPos := v.pass.Fset().Position(bad.Pos())
			v.pass.Reportf(pos, "%s is //cmfl:order-pinned, but the enclosing loop at %s:%d %s: the drain order is not reproducible — use shard.Accumulator",
				what, shortFile(loopPos.Filename), loopPos.Line, why)
			return
		}
		v.pass.Subject()
		return
	}
	v.pass.Reportf(pos, "%s depends on iteration order, which perturbs float rounding across groupings: route it through shard.Accumulator or annotate //cmfl:order-pinned <reason> on a provably deterministic loop", what)
}

// pinAt finds an order-pinned marker covering pos: on the statement's
// line, the line above it, or on (or above) any enclosing loop.
func (v *floatSumVisitor) pinAt(pos token.Pos) *orderPin {
	lines := []int{v.pass.Fset().Position(pos).Line}
	for _, frame := range v.loops {
		lines = append(lines, v.pass.Fset().Position(frame.stmt.Pos()).Line)
	}
	for _, line := range lines {
		if pin := v.pins[line]; pin != nil {
			return pin
		}
		if pin := v.pins[line-1]; pin != nil {
			return pin
		}
	}
	return nil
}

// innermostVarFrame returns the index of the deepest loop frame whose
// per-iteration variables appear in e, or -1 when e is invariant across
// every enclosing loop.
func (v *floatSumVisitor) innermostVarFrame(e ast.Expr) int {
	deepest := -1
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := v.pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		for i := len(v.loops) - 1; i > deepest; i-- {
			if v.loops[i].vars[obj] {
				deepest = i
				break
			}
		}
		return true
	})
	return deepest
}

// nonDeterministicLoop returns the first hazard loop whose drain order the
// analyzer cannot prove deterministic, with the reason.
func nonDeterministicLoop(pass *Pass, hazard []loopFrame) (ast.Stmt, string) {
	for _, frame := range hazard {
		if rng, ok := frame.stmt.(*ast.RangeStmt); ok {
			switch pass.TypeOf(rng.X).Underlying().(type) {
			case *types.Map:
				return frame.stmt, "ranges over a map"
			case *types.Chan:
				return frame.stmt, "ranges over a channel"
			}
		}
		if why := loopBodyReceives(loopBody(frame.stmt)); why != "" {
			return frame.stmt, why
		}
	}
	return nil, ""
}

func loopBody(s ast.Stmt) *ast.BlockStmt {
	switch s := s.(type) {
	case *ast.ForStmt:
		return s.Body
	case *ast.RangeStmt:
		return s.Body
	}
	return nil
}

// loopBodyReceives reports whether the loop body (function literals
// excluded) receives from a channel or selects — either makes the
// iteration-to-value mapping arrival-ordered.
func loopBodyReceives(body *ast.BlockStmt) string {
	why := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			why = "selects over channels"
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				why = "receives from a channel"
				return false
			}
		}
		return true
	})
	return why
}

func (v *floatSumVisitor) sameObject(e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && v.pass.ObjectOf(id) == obj
}

// renderLHS renders a small expression for finding messages.
func renderLHS(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderLHS(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return renderLHS(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + renderLHS(e.X)
	}
	return "expression"
}

// countAccumulatorRoutings counts every shard.Accumulator fold call — the
// order-invariant reduction sites — as a subject.
func countAccumulatorRoutings(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Pkg, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		if named := namedRecvType(sig.Recv().Type()); named != nil {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == accumulatorPath && (obj.Name() == "Accumulator" || obj.Name() == "Scalar") {
				switch fn.Name() {
				case "Add", "Merge", "Round":
					pass.Subject()
				}
			}
		}
		return true
	})
}

// namedRecvType unwraps a receiver type to its named type.
func namedRecvType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
