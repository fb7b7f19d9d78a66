package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// MetricSchema pins the telemetry registry's wire contract. Every metric
// id handed to (*telemetry.Registry).Counter/Gauge/Histogram must be
// statically analyzable:
//
//   - the family name (everything before an optional {label} set) is a
//     compile-time string constant matching ^cmfl_[a-z0-9_]+$, so a typo
//     can never mint a rogue family at runtime;
//   - label KEYS are constants drawn from LabelAllowlist — label VALUES
//     may be dynamic (that is the per-engine cardinality we signed up
//     for), but a dynamic key could explode series cardinality;
//   - each family is registered from exactly one call site with one help
//     string, so exposition metadata cannot drift between packages.
//
// The analyzer folds constant concatenations and follows single-assignment
// locals, which is exactly how the Collector builds
// `"cmfl_rounds_total" + label` — that idiom type-checks as dynamic but is
// still fully verifiable.
var MetricSchema = &Analyzer{
	Name:  "metricschema",
	Doc:   "telemetry metric names are cmfl_-prefixed constants with allowlisted label keys, one registration site per family",
	Run:   runMetricSchema,
	Merge: mergeMetricSchema,
}

// LabelAllowlist is the closed set of label keys a metric may carry.
// Extend deliberately: every key multiplies series cardinality.
var LabelAllowlist = map[string]bool{
	"engine": true,
	"task":   true,
	"code":   true,
	"shard":  true,
}

var metricNameRe = regexp.MustCompile(`^cmfl_[a-z0-9_]+$`)

// registryMethods are the registration entry points on telemetry.Registry.
var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

func runMetricSchema(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind := registryMethodName(pass, call)
				if kind == "" || len(call.Args) < 1 {
					return true
				}
				checkMetricID(pass, fd, call, kind)
				return true
			})
		}
	}
}

// mergeMetricSchema enforces one registration site per family across every
// analyzed package: the first site in (file, line) order owns the family;
// later sites are findings.
func mergeMetricSchema(mp *MergePass) {
	var all []MetricFact
	for _, t := range mp.Targets {
		all = append(all, t.Facts.Metrics...)
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
	first := make(map[string]MetricFact)
	for _, m := range all {
		prev, seen := first[m.Family]
		if !seen {
			first[m.Family] = m
			mp.Subject()
			continue
		}
		if prev.File == m.File && prev.Line == m.Line && prev.Column == m.Column {
			continue // same site revisited (overlapping targets)
		}
		mp.Reportf(m.File, m.Line, m.Column,
			"metric family %q already registered at %s:%d (%s, help %q): one registration site per family",
			m.Family, prev.File, prev.Line, prev.Kind, prev.Help)
	}
}

// registryMethodName returns "Counter"/"Gauge"/"Histogram" when call is a
// registration on telemetry.Registry, else "".
func registryMethodName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !registryMethods[sel.Sel.Name] {
		return ""
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if named(sig.Recv().Type()) != "cmfl/internal/telemetry.Registry" {
		return ""
	}
	return sel.Sel.Name
}

// dynamicHole marks a non-constant fragment in a flattened template. It
// can never occur in Go source string constants.
const dynamicHole = "\x00"

// checkMetricID validates one registration call and records the family
// fact for the merge phase.
func checkMetricID(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, kind string) {
	tmpl, ok := flattenString(pass, fd, call.Args[0], 0)
	if !ok {
		pass.Reportf(call.Args[0].Pos(), "metric id is not statically analyzable: build it from string constants (label values may be dynamic)")
		return
	}

	base, labels := tmpl, ""
	if i := strings.IndexByte(tmpl, '{'); i >= 0 {
		base, labels = tmpl[:i], tmpl[i:]
	}
	if strings.Contains(base, dynamicHole) {
		pass.Reportf(call.Args[0].Pos(), "metric family name must be a compile-time constant (only label values may be dynamic)")
		return
	}
	if !metricNameRe.MatchString(base) {
		pass.Reportf(call.Args[0].Pos(), "metric family %q must match ^cmfl_[a-z0-9_]+$", base)
		return
	}
	if labels != "" {
		checkLabels(pass, call.Args[0].Pos(), base, labels)
	} else if strings.Contains(tmpl, "}") {
		pass.Reportf(call.Args[0].Pos(), "malformed metric id %q: '}' without '{'", base)
	}

	help := ""
	if len(call.Args) >= 2 {
		if v := constValue(pass, call.Args[1]); v != "" {
			help = v
		}
	}
	pos := pass.Fset().Position(call.Pos())
	pass.Facts.Metrics = append(pass.Facts.Metrics, MetricFact{
		Family: base,
		Kind:   kind,
		Help:   help,
		File:   pos.Filename,
		Line:   pos.Line,
		Column: pos.Column,
	})
}

// checkLabels parses `{key="value",...}` with dynamicHole-opaque values.
func checkLabels(pass *Pass, pos token.Pos, base, s string) {
	bad := func(why string) {
		pass.Reportf(pos, "malformed label set on %q: %s (want {key=\"value\",...})", base, why)
	}
	if !strings.HasSuffix(s, "}") {
		bad("missing closing '}'")
		return
	}
	body := s[1 : len(s)-1]
	for _, kv := range splitLabels(body) {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			bad("label without '='")
			return
		}
		key, val := kv[:eq], kv[eq+1:]
		if strings.Contains(key, dynamicHole) {
			pass.Reportf(pos, "label key on %q must be a compile-time constant: dynamic keys are unbounded cardinality", base)
			return
		}
		if !labelKeyRe.MatchString(key) {
			bad("label key " + key + " is not an identifier")
			return
		}
		if !LabelAllowlist[key] {
			pass.Reportf(pos, "label key %q on %q is not in the allowlist %v", key, base, allowlistKeys())
		}
		if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
			bad("label value must be double-quoted")
			return
		}
	}
}

var labelKeyRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// splitLabels splits a label body on commas that sit outside quotes.
func splitLabels(body string) []string {
	var out []string
	inQuote := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	return append(out, body[start:])
}

// flattenString statically evaluates a string expression into a template
// where non-constant fragments become dynamicHole. It folds constants,
// follows `+` concatenations, and resolves identifiers assigned exactly
// once in the enclosing function. depth bounds indirection.
func flattenString(pass *Pass, fd *ast.FuncDecl, e ast.Expr, depth int) (string, bool) {
	if depth > 4 {
		return dynamicHole, true
	}
	e = ast.Unparen(e)
	if v := constValue(pass, e); v != "" || isConst(pass, e) {
		return v, true
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return dynamicHole, true
		}
		l, okL := flattenString(pass, fd, e.X, depth+1)
		r, okR := flattenString(pass, fd, e.Y, depth+1)
		return l + r, okL && okR
	case *ast.Ident:
		obj := pass.ObjectOf(e)
		if obj == nil {
			return dynamicHole, true
		}
		if rhs := soleAssignment(pass, fd, obj); rhs != nil {
			return flattenString(pass, fd, rhs, depth+1)
		}
		return dynamicHole, true
	}
	// Calls, index expressions, conversions, ...: not modeled — the id is
	// not statically analyzable at all (distinct from a dynamic fragment in
	// an otherwise constant template).
	return dynamicHole, false
}

// soleAssignment returns the RHS of obj's single assignment within fd, or
// nil when obj is assigned zero or multiple times (then its value is not
// statically known).
func soleAssignment(pass *Pass, fd *ast.FuncDecl, obj types.Object) ast.Expr {
	var rhs ast.Expr
	count := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || pass.ObjectOf(id) != obj {
				continue
			}
			count++
			rhs = assign.Rhs[i]
		}
		return true
	})
	if count != 1 {
		return nil
	}
	return rhs
}

// constValue returns the compile-time string value of e, or "".
func constValue(pass *Pass, e ast.Expr) string {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}

func allowlistKeys() []string {
	keys := make([]string, 0, len(LabelAllowlist))
	for k := range LabelAllowlist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
