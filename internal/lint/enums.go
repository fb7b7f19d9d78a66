package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// Enum-family recovery shared by the exhaustive and protostate analyzers.
// The repo's protocol and state-machine code encodes its alphabets as two
// kinds of constant families, and both are recovered here:
//
//   - named families: package-level constants sharing a named integer type
//     (FaultKind, frameVerdict, injectorMode). The family is keyed on the
//     type, so a switch whose tag has that static type binds the family
//     even when no case mentions a member.
//   - prefix families: one `const` block whose ≥3 integer members share a
//     common name prefix (msg*, spec*). These are the untyped wire
//     alphabets; a switch binds the family through its case expressions.
//
// String-valued blocks (annotation markers, metric names) are never
// families: exhaustiveness over strings is not a protocol property.

// constFamily is one enum-like constant family of a package.
type constFamily struct {
	// name is the display handle: the named type's name, or the shared
	// prefix for untyped blocks.
	name string
	// typ is the keying named type (nil for prefix families).
	typ *types.TypeName
	// members in declaration order.
	members []*types.Const
	byObj   map[types.Object]bool
}

func (f *constFamily) member(obj types.Object) bool { return f.byObj[obj] }

// missing returns the member names absent from covered, in declaration
// order.
func (f *constFamily) missing(covered map[types.Object]bool) []string {
	var out []string
	for _, m := range f.members {
		if !covered[m] {
			out = append(out, m.Name())
		}
	}
	return out
}

// constFamilies recovers the enum families declared in pkg.
func constFamilies(pkg *Package) []*constFamily {
	var fams []*constFamily
	byType := make(map[*types.TypeName]*constFamily)

	// Named families: every package-level integer constant whose type is a
	// named type declared in this package.
	scope := pkg.Types.Scope()
	names := scope.Names()
	for _, name := range names {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.Int {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok {
			continue
		}
		tn := named.Obj()
		if tn.Pkg() != pkg.Types {
			continue
		}
		fam := byType[tn]
		if fam == nil {
			fam = &constFamily{name: tn.Name(), typ: tn, byObj: make(map[types.Object]bool)}
			byType[tn] = fam
		}
		fam.members = append(fam.members, c)
		fam.byObj[c] = true
	}
	for _, fam := range byType {
		if len(fam.members) >= 2 {
			sortConstsByPos(fam.members)
			fams = append(fams, fam)
		}
	}

	// Prefix families: one const block, ≥3 integer members, shared prefix of
	// at least two characters. Blocks whose members already form a named
	// family are skipped — the type is the better key.
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			if fam := prefixFamily(pkg, gd, byType); fam != nil {
				fams = append(fams, fam)
			}
		}
	}

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// prefixFamily builds a family from one const block, or nil when the block
// does not qualify.
func prefixFamily(pkg *Package, gd *ast.GenDecl, byType map[*types.TypeName]*constFamily) *constFamily {
	var members []*types.Const
	allNamed := true
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, id := range vs.Names {
			if id.Name == "_" {
				continue
			}
			c, ok := pkg.Info.Defs[id].(*types.Const)
			if !ok || c.Val().Kind() != constant.Int {
				return nil
			}
			if named, ok := c.Type().(*types.Named); !ok || byType[named.Obj()] == nil {
				allNamed = false
			}
			members = append(members, c)
		}
	}
	if len(members) < 3 || allNamed {
		return nil
	}
	prefix := members[0].Name()
	for _, m := range members[1:] {
		prefix = commonPrefix(prefix, m.Name())
	}
	if len(prefix) < 2 {
		return nil
	}
	fam := &constFamily{name: prefix + "*", byObj: make(map[types.Object]bool)}
	fam.members = members
	for _, m := range members {
		fam.byObj[m] = true
	}
	return fam
}

func commonPrefix(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

func sortConstsByPos(cs []*types.Const) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Pos() < cs[j].Pos() })
}

// scopeFamily recovers the named family of a type declared in another
// loaded package (a switch here over an imported enum type), enumerating
// the defining package's scope.
func scopeFamily(tn *types.TypeName) *constFamily {
	if tn.Pkg() == nil {
		return nil
	}
	fam := &constFamily{name: tn.Name(), typ: tn, byObj: make(map[types.Object]bool)}
	scope := tn.Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.Int {
			continue
		}
		if named, ok := c.Type().(*types.Named); ok && named.Obj() == tn {
			fam.members = append(fam.members, c)
			fam.byObj[c] = true
		}
	}
	if len(fam.members) < 2 {
		return nil
	}
	sortConstsByPos(fam.members)
	return fam
}

// caseConst resolves one case expression to its constant object (ident or
// pkg-qualified selector), or nil.
func caseConst(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if c, ok := pkg.Info.Uses[e].(*types.Const); ok {
			return c
		}
	case *ast.SelectorExpr:
		if c, ok := pkg.Info.Uses[e.Sel].(*types.Const); ok {
			return c
		}
	}
	return nil
}

// loudDefault reports whether a default clause body fails loudly: it
// panics, exits, returns an error, or constructs one (fmt.Errorf /
// errors.New assigned to a result that a later return carries). Function
// literals are opaque — they may never run.
func loudDefault(pkg *Package, body []ast.Stmt) bool {
	loud := false
	for _, s := range body {
		ast.Inspect(s, func(n ast.Node) bool {
			if loud {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if isErrorExpr(pkg, r) {
						loud = true
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "panic" {
						loud = true
						return false
					}
				}
				if fn := calleeFunc(pkg, n); fn != nil && fn.FullName() == "os.Exit" {
					loud = true
					return false
				}
				if isErrorExpr(pkg, n) {
					loud = true
					return false
				}
			}
			return true
		})
		if loud {
			return true
		}
	}
	return false
}

// isErrorExpr reports whether e's static type is (or yields) a non-nil
// error value.
func isErrorExpr(pkg *Package, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if implementsError(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return implementsError(t)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}
