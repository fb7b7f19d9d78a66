package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the PR-1 contract: functions annotated
// //cmfl:hotpath are on the per-batch/per-coordinate training or
// aggregation path and must not allocate. The analyzer flags the Go
// constructs that heap-allocate —
//
//   - make, new, append (except the sanctioned reuse idiom
//     `append(buf[:0], ...)`, whose amortized cost is zero),
//   - slice and map composite literals, and &T{...} (value struct
//     literals stay on the stack and are allowed),
//   - string concatenation that is not constant-folded,
//   - string<->[]byte/[]rune conversions,
//   - func literals (closures),
//
// — directly in the annotated body and transitively through the entire
// in-module call chain (via the module call graph), so a hot function
// cannot launder an append through any depth of helpers. Findings against
// callees report the call path from the annotation to the allocation.
// Callees that are themselves annotated are barriers: they are checked in
// their own right, not re-reported at callers. Lines inside a callee marked
// //cmfl:lint-ignore hotpathalloc (e.g. amortized grow-only resizes) do not
// propagate to callers.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//cmfl:hotpath functions must be allocation-free through their entire in-module call chain",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	sums := pass.Mod.Summaries()
	graph := pass.Mod.CallGraph()
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasMarker(fd, markerHotPath) {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			pass.proveClean(func() {
				if s := sums[fn]; s != nil {
					for _, w := range s.Direct[EffAlloc] {
						pass.Reportf(w.Pos, "%s in hot path %s", w.What, fd.Name.Name)
					}
				}
				scanHotCallees(pass, graph, sums, fd, fn)
			})
		}
	}
}

// scanHotCallees walks the call graph from every call site of the annotated
// function, breadth-first through non-spawn in-module edges, and reports the
// first justification-free allocation reachable from each site together
// with the call path that reaches it.
func scanHotCallees(pass *Pass, graph *CallGraph, sums map[*types.Func]*EffectSummary, fd *ast.FuncDecl, fn *types.Func) {
	node := graph.Node(fn)
	if node == nil {
		return
	}
	type item struct {
		fn   *types.Func
		path []*types.Func // call chain from fd to fn, inclusive
	}
	for _, site := range node.Sites {
		if site.Spawn || site.Callee == nil || !pass.InModule(site.Callee) {
			continue
		}
		if isHotPathBarrier(pass.Mod, site.Callee) {
			continue
		}
		visited := map[*types.Func]bool{fn: true}
		queue := []item{{site.Callee, []*types.Func{site.Callee}}}
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			if visited[it.fn] {
				continue
			}
			visited[it.fn] = true
			s := sums[it.fn]
			if s == nil {
				continue // no loaded body to vouch for; dynamic conservatism stops here
			}
			if w, ok := firstUnsuppressedAlloc(pass, s); ok {
				position := pass.Fset().Position(w.Pos)
				pass.Reportf(site.Call.Pos(), "hot path %s calls %s, which allocates (%s at %s:%d)",
					fd.Name.Name, renderCallPath(it.path), w.What, position.Filename, position.Line)
				break // one finding per call site; deeper paths add noise, not signal
			}
			next := graph.Node(it.fn)
			if next == nil {
				continue
			}
			for _, cs := range next.Sites {
				if cs.Spawn || cs.Callee == nil || visited[cs.Callee] || !pass.InModule(cs.Callee) {
					continue
				}
				if isHotPathBarrier(pass.Mod, cs.Callee) {
					continue
				}
				path := make([]*types.Func, len(it.path), len(it.path)+1)
				copy(path, it.path)
				queue = append(queue, item{cs.Callee, append(path, cs.Callee)})
			}
		}
	}
}

// isHotPathBarrier reports whether callee is itself annotated //cmfl:hotpath
// (checked in its own right, so callers need not re-scan it).
func isHotPathBarrier(mod *Module, callee *types.Func) bool {
	decl, _ := mod.FuncDecl(callee)
	return decl != nil && funcHasMarker(decl, markerHotPath)
}

// firstUnsuppressedAlloc returns the summary's first direct allocation not
// covered by a callee-side //cmfl:lint-ignore hotpathalloc marker — an
// amortized allocation justified inside a helper does not re-surface at
// every annotated caller.
func firstUnsuppressedAlloc(pass *Pass, s *EffectSummary) (Witness, bool) {
	supp := pass.Mod.Suppressions()
	for _, w := range s.Direct[EffAlloc] {
		position := pass.Fset().Position(w.Pos)
		if supp.matches(Finding{Analyzer: pass.Analyzer.Name, File: position.Filename, Line: position.Line}) {
			continue
		}
		return w, true
	}
	return Witness{}, false
}

// renderCallPath renders "g" or "g → h → k" for finding messages.
func renderCallPath(path []*types.Func) string {
	names := make([]string, len(path))
	for i, fn := range path {
		names[i] = fn.Name()
	}
	return strings.Join(names, " → ")
}

// calleeFunc resolves a call expression to its static *types.Func, or nil
// for builtins, conversions, function-typed variables and interface
// methods (dynamic dispatch cannot be scanned).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// scanAllocs walks a function body and invokes report for every allocating
// construct. info supplies the type information governing body (callers may
// cross packages).
func scanAllocs(info *types.Info, body *ast.BlockStmt, report func(pos token.Pos, what string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if what := allocatingCall(info, n); what != "" {
				report(n.Pos(), what)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address-of composite literal")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal")
			case *types.Map:
				report(n.Pos(), "map literal")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				report(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				report(n.Pos(), "string concatenation")
			}
		case *ast.FuncLit:
			report(n.Pos(), "func literal (closure)")
			return false // the closure body is the closure's problem
		}
		return true
	})
}

// allocatingCall classifies a call as an allocation: the make/new/append
// builtins and string conversions. It returns "" for harmless calls.
func allocatingCall(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				return "make"
			case "new":
				return "new"
			case "append":
				if !isReuseAppend(call) {
					return "append"
				}
			}
			return ""
		}
	}
	// Type conversion string([]byte), []byte(string), string([]rune), ...
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := info.TypeOf(call.Fun)
		src := info.TypeOf(call.Args[0])
		if dst != nil && src != nil {
			dstStr, srcStr := isStringType(dst), isStringType(src)
			if dstStr != srcStr && (dstStr || srcStr) && !isNumeric(dst) && !isNumeric(src) {
				return "string conversion"
			}
		}
	}
	return ""
}

// isReuseAppend recognizes `append(buf[:0], ...)` — the repo's sanctioned
// buffer-reuse idiom whose amortized allocation cost is zero.
func isReuseAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	slice, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || slice.Low != nil || slice.High == nil {
		return false
	}
	lit, ok := slice.High.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return false // constant-folded at compile time
	}
	return isStringType(info.TypeOf(e.X)) || isStringType(info.TypeOf(e.Y))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
