package lint

import (
	"go/ast"
	"go/types"
)

// ErrCheck flags discarded error results outside tests: calls used as bare
// statements (including defer/go), and assignments of an error to the
// blank identifier — `_ = conn.Close()` silences the compiler but still
// swallows an I/O failure on the emulator's protocol path.
//
// Excluded by policy (documented in DESIGN.md §9):
//   - package fmt printers — a failed write to stderr is not actionable;
//   - methods on strings.Builder, bytes.Buffer and hash.Hash*, whose
//     error results are documented to always be nil.
//
// Anything else needs handling, propagation, or an auditable
// //cmfl:lint-ignore errcheck <reason>. Each error result assigned to a
// name is a subject.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "no discarded error results outside tests, including `_ =` assignments",
	Run:  runErrCheck,
}

func runErrCheck(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkDiscardedCall(pass, n.X, "")
			case *ast.DeferStmt:
				checkDiscardedCall(pass, n.Call, "deferred ")
			case *ast.GoStmt:
				checkDiscardedCall(pass, n.Call, "spawned ")
			case *ast.AssignStmt:
				checkBlankErrAssign(pass, n)
			}
			return true
		})
	}
}

// checkDiscardedCall reports a call statement whose result set contains an
// error that nobody reads.
func checkDiscardedCall(pass *Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !callReturnsError(pass, call) || isExcludedCallee(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "%scall discards its error result: handle it, propagate it, or justify with //cmfl:lint-ignore", how)
}

// checkBlankErrAssign reports `_ = <error expr>` and `v, _ := f()` where
// the blanked component is an error.
func checkBlankErrAssign(pass *Pass, n *ast.AssignStmt) {
	blankAt := func(i int) bool {
		id, ok := n.Lhs[i].(*ast.Ident)
		return ok && id.Name == "_"
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// Multi-value call: v, _ := f().
		call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		if !ok || isExcludedCallee(pass, call) {
			return
		}
		tuple, ok := pass.TypeOf(call).(*types.Tuple)
		if !ok {
			return
		}
		for i := 0; i < tuple.Len() && i < len(n.Lhs); i++ {
			switch {
			case !isErrorType(tuple.At(i).Type()):
			case blankAt(i):
				pass.Reportf(n.Lhs[i].Pos(), "error result assigned to _: handle it, propagate it, or justify with //cmfl:lint-ignore")
			default:
				pass.Subject()
			}
		}
		return
	}
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) || !isErrorType(pass.TypeOf(rhs)) {
			continue
		}
		if !blankAt(i) {
			pass.Subject()
			continue
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isExcludedCallee(pass, call) {
			continue
		}
		pass.Reportf(n.Lhs[i].Pos(), "error assigned to _: handle it, propagate it, or justify with //cmfl:lint-ignore")
	}
}

// callReturnsError reports whether any component of the call's result type
// is error.
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// excludedRecvTypes are receiver types whose methods' error results are
// documented to always be nil.
var excludedRecvTypes = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
	"hash.Hash":       true,
	"hash.Hash32":     true,
	"hash.Hash64":     true,
}

// isExcludedCallee implements the documented exclusion list. The receiver
// is judged by its static type at the call site (the Selections map), so a
// hash.Hash64-typed variable is excluded regardless of the concrete digest
// behind it.
func isExcludedCallee(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && (sig == nil || sig.Recv() == nil) {
		return true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := pass.Pkg.Info.Selections[sel]; s != nil && excludedRecvTypes[named(s.Recv())] {
			return true
		}
	}
	if sig != nil && sig.Recv() != nil && excludedRecvTypes[named(sig.Recv().Type())] {
		return true
	}
	return false
}

// named renders a (possibly pointer) receiver type as "pkgpath.Name".
func named(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
