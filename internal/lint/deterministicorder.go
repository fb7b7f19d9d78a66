package lint

import (
	"go/ast"
	"go/types"
)

// DeterministicOrder guards bit-reproducible aggregation. The paper's
// uplink-savings comparisons (and the emulator's wire-byte equality tests)
// assume that re-running a seed reproduces every float bit; iteration
// order is part of that contract because float addition does not commute
// in rounding.
//
// Functions annotated //cmfl:deterministic (engine round loops,
// aggregation) must not range over maps. The other two ways such a
// function could stop reproducing are owned elsewhere, package-wide:
// wallclock bans wall-clock reads and seedtaint bans the global math/rand
// source. Each annotated function found free of map ranges is a subject.
var DeterministicOrder = &Analyzer{
	Name: "deterministicorder",
	Doc:  "no map iteration in //cmfl:deterministic functions, where float accumulation order matters",
	Run:  runDeterministicOrder,
}

func runDeterministicOrder(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasMarker(fd, markerDeterministic) {
				continue
			}
			pass.proveClean(func() {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if r, ok := n.(*ast.RangeStmt); ok {
						if _, isMap := pass.TypeOf(r.X).Underlying().(*types.Map); isMap {
							pass.Reportf(r.Pos(), "map iteration in deterministic function %s: order is random and perturbs float accumulation", fd.Name.Name)
						}
					}
					return true
				})
			})
		}
	}
}
