package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Exhaustive enforces total dispatch over the repo's enum-like constant
// families (frame kinds, codec spec tags, quorum verdicts, fault kinds,
// injector modes): a switch over a family must either name every member or
// carry a default clause that fails loudly. A silent default on a protocol
// alphabet is how an unknown frame kind gets routed to the wrong handler
// instead of severing the connection — the exact bug class the wire-v2 retirement of kind 6 was
// designed to surface.
//
// A switch is "over" a family when its tag's static type is the family's
// named type, or when at least two of its case expressions resolve to
// members of one prefix family (msg*, spec*). Type switches and
// tagless switches are out of scope, as are string-valued const blocks.
// Each switch bound to a family that passes is a subject.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc:  "switches over enum-like const families cover every member or reject the rest through an error-returning default",
	Run:  runExhaustive,
}

func runExhaustive(pass *Pass) {
	fams := constFamilies(pass.Pkg)
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkExhaustiveSwitch(pass, fams, sw)
			return true
		})
	}
}

func checkExhaustiveSwitch(pass *Pass, fams []*constFamily, sw *ast.SwitchStmt) {
	covered := make(map[types.Object]bool)
	var defaultBody []ast.Stmt
	hasDefault := false
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
			if obj := caseConst(pass.Pkg, e); obj != nil {
				covered[obj] = true
			}
		}
	}

	fam := switchFamily(pass, fams, sw, covered)
	if fam == nil {
		return
	}
	missing := fam.missing(covered)
	if len(missing) == 0 || hasDefault && loudDefault(pass.Pkg, defaultBody) {
		pass.Subject()
		return
	}
	what := "and there is no default clause"
	if hasDefault {
		what = "and the default handles them silently"
	}
	pass.Reportf(sw.Tag.Pos(), "switch over %s misses %s %s: add the cases or a default that returns an error",
		fam.name, strings.Join(missing, ", "), what)
}

// switchFamily binds the switch to a family: by the tag's named type
// first (including enum types imported from other loaded packages), then
// by prefix-family membership of its case constants.
func switchFamily(pass *Pass, fams []*constFamily, sw *ast.SwitchStmt, covered map[types.Object]bool) *constFamily {
	if t := pass.TypeOf(sw.Tag); t != nil {
		if named, ok := t.(*types.Named); ok {
			tn := named.Obj()
			for _, fam := range fams {
				if fam.typ == tn {
					return fam
				}
			}
			if tn.Pkg() != nil && tn.Pkg() != pass.Pkg.Types {
				return scopeFamily(tn)
			}
			return nil
		}
	}
	var best *constFamily
	bestHits := 0
	for _, fam := range fams {
		if fam.typ != nil {
			continue // named families bind through the tag type alone
		}
		hits := 0
		for obj := range covered {
			if fam.member(obj) {
				hits++
			}
		}
		if hits > bestHits {
			best, bestHits = fam, hits
		}
	}
	if bestHits >= 2 {
		return best
	}
	return nil
}
