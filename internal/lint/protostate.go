package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ProtoState recovers the wire-protocol automaton from the code of both
// peers and checks that the two sides are duals. The emulator's protocol is
// hand-rolled twice — the client writes what the server parses and vice
// versa — and nothing but convention keeps the two state machines aligned.
// This analyzer turns the convention into facts:
//
//	frame kinds     the msg* constant family (byte-valued wire alphabet)
//	writes          msg* constants passed as call arguments (writeFrame,
//	                stage, …), attributed to the client or server side by
//	                call-graph reachability from the side's entry points
//	reads           msg* constants consumed in switch cases or ==/!=
//	                comparisons
//
// and checks, in the merge phase over every package's facts:
//
//	D1  every frame kind one side writes has a reader on the other side;
//
// plus two per-package rules with full type information:
//
//	D2  a switch dispatching on frame kinds rejects unknown kinds loudly
//	    (a default clause that returns an error — silent fall-through is
//	    how a stale peer gets misparsed instead of severed);
//	D3  on a freshly dialed connection the first frame written is the
//	    hello: no kind is writable before version/codec negotiation
//	    completes.
//
// Kinds that are read but never written are NOT findings: retired wire
// kinds (msgUpdateCRetired) deliberately keep a loud reader.
var ProtoState = &Analyzer{
	Name:  "protostate",
	Doc:   "client/server wire-protocol duality: every written frame kind has an opposite-side reader, unknown kinds are rejected loudly, nothing precedes the hello",
	Run:   runProtoState,
	Merge: mergeProtoState,
}

// Protocol roles are declared by name so fixture packages bind the same
// rules as internal/emu. (Vars, not consts: tests may extend them.)
var (
	// protoFramePrefix names the frame-kind constant family.
	protoFramePrefix = "msg*"
	// protoClientFuncs are the client side's entry points.
	protoClientFuncs = map[string]bool{"RunClient": true}
	// protoServerTypes are the receiver types whose methods form the
	// server side.
	protoServerTypes = map[string]bool{"Server": true, "shardAgg": true}
)

const (
	sideClient = 1 << iota
	sideServer
)

func sideName(mask int) string {
	switch mask {
	case sideClient:
		return "client"
	case sideServer:
		return "server"
	case sideClient | sideServer:
		return "both"
	}
	return ""
}

func runProtoState(pass *Pass) {
	var frameFam *constFamily
	for _, fam := range constFamilies(pass.Pkg) {
		if fam.name == protoFramePrefix {
			frameFam = fam
		}
	}
	if frameFam == nil {
		return
	}

	ps := &protoScan{pass: pass, frames: frameFam, firstKind: make(map[*types.Func]string)}
	ps.classifySides()
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ps.scanFunc(fd)
		}
	}
}

// protoScan is the per-package protocol fact collector.
type protoScan struct {
	pass   *Pass
	frames *constFamily
	// side maps each package function to the side(s) whose entry points
	// reach it (bitmask of sideClient/sideServer).
	side map[*types.Func]int
	// firstKind memoizes the name of the first frame-kind constant a
	// function writes, in source order, descending into module callees
	// ("" = none resolvable).
	firstKind map[*types.Func]string
}

// classifySides computes intra-package reachability from the declared
// client and server entry points.
func (ps *protoScan) classifySides() {
	pkg := ps.pass.Pkg
	ps.side = make(map[*types.Func]int)
	type rootFn struct {
		fn   *types.Func
		mask int
	}
	var roots []rootFn
	callees := make(map[*types.Func][]*types.Func)
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
			callees[fn] = packageCallees(pkg, fd.Body)
			if fd.Recv == nil && protoClientFuncs[fd.Name.Name] {
				roots = append(roots, rootFn{fn, sideClient})
			}
			if fd.Recv != nil && protoServerTypes[recvTypeName(fd)] {
				roots = append(roots, rootFn{fn, sideServer})
			}
		}
	}
	var visit func(fn *types.Func, mask int)
	visit = func(fn *types.Func, mask int) {
		if ps.side[fn]&mask == mask {
			return
		}
		ps.side[fn] |= mask
		for _, c := range callees[fn] {
			visit(c, mask)
		}
	}
	for _, r := range roots {
		visit(r.fn, r.mask)
	}
}

// packageCallees lists the same-package functions a body calls, including
// inside function literals and go statements (either runs on some side's
// behalf).
func packageCallees(pkg *Package, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn != nil && fn.Pkg() == pkg.Types && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// scanFunc collects one function's protocol facts and runs the in-package
// rules (D2 loud rejection, D3 hello-first).
func (ps *protoScan) scanFunc(fd *ast.FuncDecl) {
	pass := ps.pass
	pkg := pass.Pkg
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	side := sideName(ps.side[fn])
	var dialPos []token.Pos

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if obj := ps.frameConst(arg); obj != nil {
					ps.record("frame-write", obj.Name(), side, fd.Name.Name, arg.Pos())
				}
			}
			if isDialCall(pkg, n) {
				dialPos = append(dialPos, n.Pos())
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				for _, e := range []ast.Expr{n.X, n.Y} {
					if obj := ps.frameConst(e); obj != nil {
						ps.record("frame-read", obj.Name(), side, fd.Name.Name, e.Pos())
					}
				}
			}
		case *ast.SwitchStmt:
			ps.scanSwitch(n, side, fd.Name.Name)
		}
		return true
	})

	// D3: the first frame written after a dial must be the hello.
	if len(dialPos) > 0 {
		hello := ps.helloKind()
		if hello != "" {
			for _, dp := range dialPos {
				if pos, kind := ps.firstKindAfter(fd, dp); kind != "" && kind != hello {
					pass.Reportf(pos, "frame kind %s written on a freshly dialed connection before the %s handshake: negotiation must complete first", kind, hello)
				}
			}
		}
	}
}

// scanSwitch records read facts for family members in case clauses and
// enforces D2 on frame-kind dispatch switches.
func (ps *protoScan) scanSwitch(sw *ast.SwitchStmt, side, fname string) {
	if sw.Tag == nil {
		return
	}
	frameCases := 0
	hasDefault := false
	var defaultBody []ast.Stmt
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			defaultBody = cc.Body
			continue
		}
		for _, e := range cc.List {
			if obj := ps.frameConst(e); obj != nil {
				frameCases++
				ps.record("frame-read", obj.Name(), side, fname, e.Pos())
			}
		}
	}
	if frameCases > 0 {
		if !hasDefault {
			ps.pass.Reportf(sw.Tag.Pos(), "frame-kind dispatch in %s silently ignores unknown kinds: add a default that returns an error", fname)
		} else if !loudDefault(ps.pass.Pkg, defaultBody) {
			ps.pass.Reportf(sw.Tag.Pos(), "frame-kind dispatch in %s swallows unknown kinds in its default: reject them with an error", fname)
		}
	}
}

func (ps *protoScan) frameConst(e ast.Expr) types.Object {
	if obj := caseConst(ps.pass.Pkg, e); obj != nil && ps.frames.member(obj) {
		return obj
	}
	return nil
}

func (ps *protoScan) record(op, kind, side, fname string, pos token.Pos) {
	position := ps.pass.Fset().Position(pos)
	ps.pass.Facts.Proto = append(ps.pass.Facts.Proto, ProtoFact{
		Kind: kind, Op: op, Side: side, Func: fname,
		File: position.Filename, Line: position.Line, Column: position.Column,
	})
}

// helloKind names the negotiation frame: the family member whose name
// contains "Hello".
func (ps *protoScan) helloKind() string {
	for _, m := range ps.frames.members {
		if strings.Contains(m.Name(), "Hello") {
			return m.Name()
		}
	}
	return ""
}

// firstKindAfter finds the first frame kind fd's body provably writes
// after pos in source order, descending one level at a time into module
// callees via firstKindOf.
func (ps *protoScan) firstKindAfter(fd *ast.FuncDecl, pos token.Pos) (token.Pos, string) {
	type event struct {
		pos  token.Pos
		kind string
	}
	var events []event
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if k := ps.callKind(call, make(map[*types.Func]bool)); k != "" {
			events = append(events, event{call.Pos(), k})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	for _, ev := range events {
		if ev.pos > pos {
			return ev.pos, ev.kind
		}
	}
	return token.NoPos, ""
}

// callKind resolves the frame kind one call writes: a direct frame-kind
// constant argument wins; otherwise the module callee's own first written
// kind.
func (ps *protoScan) callKind(call *ast.CallExpr, visiting map[*types.Func]bool) string {
	for _, arg := range call.Args {
		if obj := ps.frameConst(arg); obj != nil {
			return obj.Name()
		}
	}
	fn := calleeFunc(ps.pass.Pkg, call)
	if fn == nil || !ps.pass.InModule(fn) {
		return ""
	}
	return ps.firstKindOf(fn, visiting)
}

func (ps *protoScan) firstKindOf(fn *types.Func, visiting map[*types.Func]bool) string {
	if k, ok := ps.firstKind[fn]; ok {
		return k
	}
	if visiting[fn] {
		return ""
	}
	visiting[fn] = true
	defer delete(visiting, fn)
	decl, dpkg := ps.pass.Mod.FuncDecl(fn)
	if decl == nil || decl.Body == nil || dpkg != ps.pass.Pkg {
		// Cross-package bodies have no access to this package's unexported
		// kind constants; nothing to resolve.
		ps.firstKind[fn] = ""
		return ""
	}
	type event struct {
		pos  token.Pos
		call *ast.CallExpr
	}
	var events []event
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			events = append(events, event{call.Pos(), call})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	kind := ""
	for _, ev := range events {
		if k := ps.callKind(ev.call, visiting); k != "" {
			kind = k
			break
		}
	}
	ps.firstKind[fn] = kind
	return kind
}

// isDialCall recognizes fresh-connection constructors: net.Dial and
// net.DialTimeout (or a fixture package whose path ends in /net).
func isDialCall(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Name(), "Dial") {
		return false
	}
	p := fn.Pkg().Path()
	return p == "net" || hasSuffixSegment(p, "net")
}

// mergeProtoState checks D1 (frame duality) over every package's facts.
func mergeProtoState(mp *MergePass) {
	var all []ProtoFact
	for _, t := range mp.Targets {
		all = append(all, t.Facts.Proto...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})

	// readers[kind] accumulates the side mask of every read site; "" and
	// "both" satisfy either side.
	readers := make(map[string]int)
	for _, f := range all {
		if f.Op == "frame-read" {
			readers[f.Kind] |= sideMask(f.Side)
		}
	}

	reported, matched := make(map[string]bool), make(map[string]bool)
	for _, f := range all {
		if f.Op != "frame-write" || reported[f.Kind] {
			continue
		}
		var need int
		switch f.Side {
		case "client":
			need = sideServer
		case "server":
			need = sideClient
		default:
			continue // unattributed writes cannot demand a dual
		}
		if readers[f.Kind]&need == 0 {
			reported[f.Kind] = true
			mp.Reportf(f.File, f.Line, f.Column,
				"frame kind %s is written on the %s side but has no %s-side reader: the peer cannot consume it",
				f.Kind, f.Side, sideName(need))
		} else if !matched[f.Kind] {
			matched[f.Kind] = true // a subject: a written kind with its dual reader
			mp.Subject()
		}
	}
}

func sideMask(s string) int {
	switch s {
	case "client":
		return sideClient
	case "server":
		return sideServer
	case "both":
		return sideClient | sideServer
	}
	// Unattributed reads satisfy either side: a helper outside both
	// closures (shared parser) is still a reader.
	return sideClient | sideServer
}
