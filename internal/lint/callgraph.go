package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The call graph is the whole-module substrate the v2 analyzers share:
// hotpathalloc walks it to prove allocation freedom through entire call
// chains, and concsafety uses its goroutine origins to decide which struct
// fields are written from more than one goroutine.
//
// Resolution is static and deliberately conservative:
//
//   - direct calls and method calls resolve through the type checker's Uses
//     map (concrete receivers and interface methods alike — interface
//     callees simply have no body to follow);
//   - calls through function-typed values are recorded as dynamic sites
//     (counted, never followed);
//   - a module function whose value is taken outside call position
//     (assigned, passed, stored) is treated as reachable from anywhere: it
//     joins the main-origin roots, since the analysis can no longer see its
//     callers.

// CallSite is one call expression inside a module function body.
type CallSite struct {
	Caller *FuncNode
	Call   *ast.CallExpr
	// Callee is the statically resolved target (possibly outside the
	// module); nil for dynamic calls through function values or builtins.
	Callee *types.Func
	// Spawn marks the call of a `go` statement: the callee runs on a new
	// goroutine, so effect and reach propagation treat the edge specially.
	Spawn bool
}

// FuncNode is one module function (or method) with a body.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Sites are the body's call sites in source order. Calls inside
	// non-spawned function literals are attributed to the enclosing
	// function (the literal may run on the same goroutine at any time);
	// calls inside `go func(){…}` literals belong to that spawn's origin
	// instead and are not listed here.
	Sites []*CallSite
	// Dynamic counts call sites that could not be resolved statically.
	Dynamic int
	// AddressTaken reports that the function's value escapes call position
	// somewhere in the module.
	AddressTaken bool
}

// Origin is one goroutine creation context: the synthetic main origin
// (index 0) or one `go` statement.
type Origin struct {
	Index int
	// Pos is the `go` statement's position (token.NoPos for main).
	Pos token.Pos
	// Desc renders as "main" or "go at file:line".
	Desc string
	// Go is the statement itself (nil for main).
	Go *ast.GoStmt
	// Lit is the spawned function literal, when the spawn target is one.
	Lit *ast.FuncLit
	// Pkg is the package hosting the spawn site (nil for main).
	Pkg *Package
	// roots are the statically resolved module functions the origin starts
	// executing (the spawned callee, or the callees reached directly from a
	// spawned literal's body).
	roots []*types.Func
}

// CallGraph is the module-wide graph plus the per-origin reach relation.
type CallGraph struct {
	mod   *Module
	Nodes map[*types.Func]*FuncNode
	// Origins lists main first, then every `go` statement in deterministic
	// position order.
	Origins []*Origin

	// reach[fn] is the bitset of origin indices whose transitive call
	// closure contains fn.
	reach map[*types.Func]originSet
}

// originSet is a small bitset over origin indices.
type originSet []uint64

func newOriginSet(n int) originSet { return make(originSet, (n+63)/64) }

func (s originSet) has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }

func (s originSet) add(i int) { s[i/64] |= 1 << uint(i%64) }

func (s originSet) union(o originSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// intersect narrows s to the origins also present in o, reporting whether
// anything remains.
func (s originSet) intersect(o originSet) bool {
	any := false
	for i := range s {
		s[i] &= o[i]
		any = any || s[i] != 0
	}
	return any
}

func (s originSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s originSet) clone() originSet {
	c := make(originSet, len(s))
	copy(c, s)
	return c
}

// CallGraph returns the module's call graph, building it on first use. The
// graph is shared by analyzers running in parallel; the sync.Once on the
// Module makes the construction race-free.
func (m *Module) CallGraph() *CallGraph {
	m.cgOnce.Do(func() { m.cg = buildCallGraph(m) })
	return m.cg
}

func buildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{mod: mod, Nodes: make(map[*types.Func]*FuncNode)}

	// Pass 1: nodes for every declared module function with a body.
	paths := make([]string, 0, len(mod.Pkgs))
	for p := range mod.Pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pkg := mod.Pkgs[p]
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[fn] = &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}

	// Pass 2: edges, spawn origins, and address-taken marks.
	main := &Origin{Index: 0, Desc: "main"}
	g.Origins = []*Origin{main}
	for _, p := range paths {
		pkg := mod.Pkgs[p]
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				node := g.Nodes[fn]
				g.scanBody(node, pkg, fd.Body)
			}
		}
	}

	// Main-origin roots: exported functions, methods of any kind reachable
	// through exported API surfaces are approximated by "exported or
	// address-taken"; init functions and main.main too. Everything they can
	// reach without crossing a `go` edge runs on the caller's goroutine.
	for fn, node := range g.Nodes {
		if fn.Exported() || node.AddressTaken || fn.Name() == "init" || fn.Name() == "main" {
			main.roots = append(main.roots, fn)
		}
	}

	sort.Slice(g.Origins[1:], func(i, j int) bool { return g.Origins[i+1].Pos < g.Origins[j+1].Pos })
	for i, o := range g.Origins {
		o.Index = i
	}
	g.computeReach()
	return g
}

// scanBody walks one function body collecting call sites, spawn origins and
// address-taken references. Non-spawned function literals are inlined into
// the enclosing node; spawned literals become origins of their own.
func (g *CallGraph) scanBody(node *FuncNode, pkg *Package, body *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			g.addSpawn(node, pkg, n)
			// Argument expressions still evaluate on the current goroutine,
			// but their calls are rare and never load-bearing for the
			// analyses built on the graph; skip the subtree wholesale.
			return false
		case *ast.CallExpr:
			g.addCall(node, pkg, n, false)
			// Recurse into arguments for nested calls/references, but not
			// through the Fun expression twice.
			for _, a := range n.Args {
				ast.Inspect(a, walk)
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				ast.Inspect(sel.X, walk)
			}
			return false
		case *ast.Ident:
			g.markAddressTaken(pkg, n)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// addCall records one call expression on node.
func (g *CallGraph) addCall(node *FuncNode, pkg *Package, call *ast.CallExpr, spawn bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		// Builtins and type conversions are not calls in the graph sense;
		// function values and unresolvable targets count as dynamic.
		if !isBuiltinOrConversion(pkg, call) {
			node.Dynamic++
			node.Sites = append(node.Sites, &CallSite{Caller: node, Call: call, Spawn: spawn})
		}
		return
	}
	node.Sites = append(node.Sites, &CallSite{Caller: node, Call: call, Callee: fn, Spawn: spawn})
}

// addSpawn records a `go` statement as a new origin.
func (g *CallGraph) addSpawn(node *FuncNode, pkg *Package, stmt *ast.GoStmt) {
	pos := g.mod.Fset.Position(stmt.Pos())
	o := &Origin{
		Pos:  stmt.Pos(),
		Desc: fmt.Sprintf("go at %s:%d", shortFile(pos.Filename), pos.Line),
		Go:   stmt,
		Pkg:  pkg,
	}
	if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
		o.Lit = lit
		// The literal body belongs to the spawned goroutine: collect the
		// module callees it reaches directly as the origin's roots. Nested
		// go statements inside the literal become origins of their own.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				g.addSpawn(node, pkg, n)
				return false
			case *ast.CallExpr:
				if fn := calleeFunc(pkg, n); fn != nil {
					if _, ok := g.Nodes[fn]; ok {
						o.roots = append(o.roots, fn)
					}
				}
			case *ast.Ident:
				g.markAddressTaken(pkg, n)
			}
			return true
		})
	} else if fn := calleeFunc(pkg, stmt.Call); fn != nil {
		if _, ok := g.Nodes[fn]; ok {
			o.roots = append(o.roots, fn)
		}
	} else {
		node.Dynamic++
	}
	g.Origins = append(g.Origins, o)
}

// markAddressTaken flags module functions referenced outside call position.
// The scan visits identifiers that survived the call-position pruning in
// scanBody, so any function-typed use landing here escaped as a value.
func (g *CallGraph) markAddressTaken(pkg *Package, id *ast.Ident) {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if node, ok := g.Nodes[fn]; ok {
		node.AddressTaken = true
	}
}

// isBuiltinOrConversion reports whether call is a builtin invocation or a
// type conversion (neither is an edge).
func isBuiltinOrConversion(pkg *Package, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := pkg.Info.Uses[fun].(*types.Builtin); ok {
			return true
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

// computeReach propagates every origin through non-spawn edges until fixed
// point: reach(o) is the set of module functions that may execute on a
// goroutine created at o.
func (g *CallGraph) computeReach() {
	n := len(g.Origins)
	g.reach = make(map[*types.Func]originSet, len(g.Nodes))
	setFor := func(fn *types.Func) originSet {
		s, ok := g.reach[fn]
		if !ok {
			s = newOriginSet(n)
			g.reach[fn] = s
		}
		return s
	}
	var queue []*types.Func
	for _, o := range g.Origins {
		for _, root := range o.roots {
			s := setFor(root)
			if !s.has(o.Index) {
				s.add(o.Index)
				queue = append(queue, root)
			}
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].Pos() < queue[j].Pos() })
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Nodes[fn]
		if node == nil {
			continue
		}
		src := g.reach[fn]
		for _, site := range node.Sites {
			if site.Spawn || site.Callee == nil {
				continue
			}
			if _, ok := g.Nodes[site.Callee]; !ok {
				continue
			}
			if setFor(site.Callee).union(src) {
				queue = append(queue, site.Callee)
			}
		}
	}
}

// Contexts returns the set of goroutine origins fn may execute on (empty
// when fn is unreachable by the static analysis).
func (g *CallGraph) Contexts(fn *types.Func) originSet {
	if s, ok := g.reach[fn]; ok {
		return s
	}
	return newOriginSet(len(g.Origins))
}

// OriginDescs renders the origins in an originSet, for finding messages.
func (g *CallGraph) OriginDescs(s originSet) []string {
	var out []string
	for _, o := range g.Origins {
		if s.has(o.Index) {
			out = append(out, o.Desc)
		}
	}
	return out
}

// Node returns the graph node for fn, or nil when fn has no loaded body.
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.Nodes[fn] }

// shortFile trims a path to its last two segments, keeping messages
// readable while staying unambiguous within the module.
func shortFile(path string) string {
	slash := 0
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			slash++
			if slash == 2 {
				return path[i+1:]
			}
		}
	}
	return path
}
