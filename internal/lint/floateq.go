package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point operands (and switch
// statements over a float tag, which compare the same way) outside test
// files. Exact float equality is almost always a latent bug around
// accumulated rounding; compare with core.ApproxEqual and an explicit
// tolerance instead. The rare intentional bit-exact comparison (an
// all-zeros "no feedback yet" sentinel, an IEEE special case) is annotated
// //cmfl:lint-ignore floateq <reason> so the intent is auditable. Each
// ordered comparison (<, <=, >, >=) of float operands is a subject.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "no ==/!= on float operands; use core.ApproxEqual with an explicit tolerance",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if !isFloatExpr(pass, n.X) && !isFloatExpr(pass, n.Y) {
					return true
				}
				switch {
				case n.Op != token.EQL && n.Op != token.NEQ:
					if n.Op.Precedence() == token.EQL.Precedence() {
						pass.Subject() // <, <=, > or >=
					}
				case !isConst(pass, n.X) || !isConst(pass, n.Y):
					// Two constants fold at compile time: no runtime comparison.
					pass.Reportf(n.Pos(), "float %s comparison: use core.ApproxEqual (or justify bit-exact intent with //cmfl:lint-ignore)", n.Op)
				}
			case *ast.SwitchStmt:
				if n.Tag != nil && isFloatExpr(pass, n.Tag) {
					pass.Reportf(n.Pos(), "switch on float value compares with ==: use explicit epsilon comparisons")
				}
			}
			return true
		})
	}
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}
