package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// WallClock proves that the engines never read the wall clock directly:
// every time source must flow through internal/vclock (usually via a
// package-level hook like emu's now()). A direct time.Now in round logic
// silently breaks virtual-clock replay — the sim engine would advance by
// real elapsed time instead of simulated time, and the divergence only
// shows up as flaky soak results — and in the synchronous engines (fl,
// mtl, core) a clock read is the one input a rerun cannot reproduce.
//
// The proof is transitive: a scope-package function that calls an
// out-of-scope module helper whose body (or whose callees' bodies) reads
// the wall clock is reported at the original call site. internal/vclock
// itself is the sanctioned sink and is never descended into; other
// scope packages are analyzed in their own right.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "the engine packages read time through the internal/vclock hook, never the wall clock",
	Run:  runWallClock,
}

// WallClockPackages are the engine packages: the virtual-clock domains
// (sim, emu) and the synchronous engines whose results must replay bit for
// bit (fl, mtl, core). (Var, not const: fixture tests extend it.)
var WallClockPackages = map[string]bool{
	"cmfl/internal/fl":   true,
	"cmfl/internal/mtl":  true,
	"cmfl/internal/core": true,
	"cmfl/internal/sim":  true,
	"cmfl/internal/emu":  true,
}

// vclockPath is the sanctioned time source; each call into it is a
// subject.
const vclockPath = "cmfl/internal/vclock"

// bannedTimeFuncs are the package-level time functions that read or
// schedule against the wall clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// timeWitness is the first wall-clock read found beneath a function.
type timeWitness struct {
	fn   *types.Func // the banned time.* function
	pos  string      // file:line of the banned call
	hops []string    // call chain from the scope function, outermost first
}

func runWallClock(pass *Pass) {
	if !WallClockPackages[pass.Pkg.Path] {
		return
	}
	w := &wallClockWalker{
		pass:     pass,
		memo:     make(map[*types.Func]*timeWitness),
		visiting: make(map[*types.Func]bool),
	}
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.scanScopeFunc(fd)
			}
		}
	}
}

type wallClockWalker struct {
	pass     *Pass
	memo     map[*types.Func]*timeWitness // out-of-scope callee -> first wall-clock read beneath it (nil = clean)
	visiting map[*types.Func]bool         // cycle guard for the transitive scan
}

// scanScopeFunc walks one scope-package function body — including function
// literals and go statements, which the module call graph deliberately
// attributes elsewhere — and reports every path to the wall clock.
func (w *wallClockWalker) scanScopeFunc(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(w.pass.Pkg, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "time" && bannedTimeFuncs[fn.Name()]:
			w.pass.Reportf(call.Pos(), "%s calls time.%s directly: the %s package must read time through the internal/vclock hook",
				fd.Name.Name, fn.Name(), w.pass.Pkg.Types.Name())
		case fn.Pkg().Path() == vclockPath:
			w.pass.Subject()
		default:
			if wit := w.witnessFor(fn); wit != nil {
				w.pass.Reportf(call.Pos(), "%s calls %s, which reaches %s (%s via %s): route time through the internal/vclock hook",
					fd.Name.Name, fn.Name(), wit.fn.FullName(), wit.pos, chain(wit.hops))
			}
		}
		return true
	})
}

// witnessFor finds the first wall-clock read beneath an out-of-scope
// module function, memoized across the pass. vclock is the sanctioned
// sink; other scope packages are scanned in their own right. Both are
// barriers.
func (w *wallClockWalker) witnessFor(fn *types.Func) *timeWitness {
	if fn.Pkg().Path() == vclockPath || WallClockPackages[fn.Pkg().Path()] {
		return nil
	}
	if wit, ok := w.memo[fn]; ok {
		return wit
	}
	if w.visiting[fn] {
		return nil // recursion cycle; the entry point will find any witness
	}
	decl, declPkg := w.pass.Mod.FuncDecl(fn)
	if decl == nil || decl.Body == nil {
		w.memo[fn] = nil
		return nil
	}
	w.visiting[fn] = true
	defer delete(w.visiting, fn)

	var found *timeWitness
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(declPkg, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if callee.Pkg().Path() == "time" && bannedTimeFuncs[callee.Name()] {
			pos := w.pass.Fset().Position(call.Pos())
			found = &timeWitness{fn: callee, pos: shortFile(pos.Filename) + ":" + strconv.Itoa(pos.Line), hops: []string{fn.Name()}}
			return false
		}
		if wit := w.witnessFor(callee); wit != nil {
			found = &timeWitness{fn: wit.fn, pos: wit.pos, hops: append([]string{fn.Name()}, wit.hops...)}
			return false
		}
		return true
	})
	w.memo[fn] = found
	return found
}

func chain(hops []string) string {
	out := ""
	for i, h := range hops {
		if i > 0 {
			out += " -> "
		}
		out += h
	}
	return out
}
