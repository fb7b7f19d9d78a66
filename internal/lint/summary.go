package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Effect summaries answer "what can calling this function do?" for every
// module function with a body, so analyzers can reason transitively instead
// of re-walking callee syntax at every call site. Each summary records the
// function's *direct* effects with positioned witnesses — only the two an
// analyzer reads: allocation (hotpathalloc) and blocking (concsafety). The
// blocking effect is also closed transitively over non-spawn call edges
// with the call chain kept for the finding message.

// Effect enumerates the tracked behaviors.
type Effect uint8

const (
	EffAlloc Effect = iota // heap allocation (hotpathalloc's construct set)
	EffBlock               // may park the calling goroutine
	numEffects
)

// Witness is one positioned occurrence of an effect.
type Witness struct {
	Pos  token.Pos
	What string
}

// TransWitness is a transitive witness: the occurrence plus the in-module
// call chain (fn → Via[0] → … → the witness's owner) that reaches it.
type TransWitness struct {
	W   Witness
	Via []*types.Func
}

// EffectSummary is the per-function effect record.
type EffectSummary struct {
	Fn     *types.Func
	Direct [numEffects][]Witness

	// blocks is set when the function may block the calling goroutine,
	// directly or through in-module callees.
	blocks *TransWitness
}

// Blocks returns the transitive blocking witness, or nil when the function
// provably (up to the usual dynamic-call conservatism) never blocks.
func (s *EffectSummary) Blocks() *TransWitness { return s.blocks }

// Summaries returns the module's effect summaries, computing them on first
// use. Safe for concurrent analyzers.
func (m *Module) Summaries() map[*types.Func]*EffectSummary {
	m.sumOnce.Do(func() { m.sums = buildSummaries(m) })
	return m.sums
}

func buildSummaries(mod *Module) map[*types.Func]*EffectSummary {
	g := mod.CallGraph()
	sums := make(map[*types.Func]*EffectSummary, len(g.Nodes))

	var fns []*types.Func
	for fn := range g.Nodes {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	for _, fn := range fns {
		node := g.Nodes[fn]
		s := &EffectSummary{Fn: fn}
		scanDirectEffects(node.Pkg, node.Decl.Body, s)
		if len(s.Direct[EffBlock]) > 0 {
			w := s.Direct[EffBlock][0]
			s.blocks = &TransWitness{W: w}
		}
		sums[fn] = s
	}

	// Transitive blocking: fixed point over non-spawn in-module edges. A
	// witness, once chosen, is never replaced, so with the sorted outer
	// iteration the result is deterministic.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			s := sums[fn]
			if s.blocks != nil {
				continue
			}
			for _, site := range g.Nodes[fn].Sites {
				if site.Spawn || site.Callee == nil {
					continue
				}
				cs, ok := sums[site.Callee]
				if !ok || cs.blocks == nil {
					continue
				}
				via := make([]*types.Func, 0, len(cs.blocks.Via)+1)
				via = append(via, site.Callee)
				via = append(via, cs.blocks.Via...)
				s.blocks = &TransWitness{W: cs.blocks.W, Via: via}
				changed = true
				break
			}
		}
	}
	return sums
}

// scanDirectEffects records the body's own effects. Spawned bodies are
// excluded from Block (they run on another goroutine), but the `go`
// statement itself is an Alloc.
func scanDirectEffects(pkg *Package, body *ast.BlockStmt, s *EffectSummary) {
	info := pkg.Info
	add := func(e Effect, pos token.Pos, what string) {
		s.Direct[e] = append(s.Direct[e], Witness{Pos: pos, What: what})
	}
	scanAllocs(info, body, func(pos token.Pos, what string) { add(EffAlloc, pos, what) })
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			add(EffBlock, n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(EffBlock, n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				add(EffBlock, n.Pos(), "select without default")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(EffBlock, n.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pkg, n); fn != nil {
				if what := blockingCall(fn); what != "" {
					add(EffBlock, n.Pos(), what)
				}
			}
		}
		return true
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingRecvMethods maps "recvType.Method" of calls that park the caller.
// Receivers are judged by static type, so an interface-typed net.Conn.Read
// counts even when the concrete conn would not.
var blockingRecvMethods = map[string]bool{
	"net.Conn.Read":         true,
	"net.Conn.Write":        true,
	"net.Listener.Accept":   true,
	"io.Reader.Read":        true,
	"io.Writer.Write":       true,
	"io.ReadWriter.Read":    true,
	"io.ReadWriter.Write":   true,
	"sync.WaitGroup.Wait":   true,
	"sync.Cond.Wait":        true,
	"net/http.Server.Serve": true,
}

// blockingCall classifies a statically resolved callee as blocking, returning
// a short description or "".
func blockingCall(fn *types.Func) string {
	switch fn.FullName() {
	case "time.Sleep":
		return "time.Sleep"
	case "io.ReadFull", "io.Copy", "io.ReadAll":
		return fn.FullName()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	key := named(sig.Recv().Type()) + "." + fn.Name()
	if blockingRecvMethods[key] {
		return key
	}
	return ""
}
