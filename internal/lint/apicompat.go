package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// APICompat gates the exported surface an importer of the module can
// reach against a committed snapshot, benchmarks/api_baseline.json.
// Removing or changing the declaration of a symbol the baseline records is
// a finding — breaking changes ship with a written migration, as a gate
// cmfl-vet enforces instead of reviewers remembering it. Go forbids
// importing internal/* from outside the module, so the surface is the root
// package: its own declarations, plus the exported fields and methods of
// every module type a root alias names, recorded under the alias.
//
// Additions are always fine: the baseline is a floor, not a mirror. To
// accept an intentional break, regenerate the snapshot with
// `cmfl-vet -write-api-baseline` and add a //cmfl:api-change <reason>
// marker line to a Go file of the change (checked for a reason in every
// package), the reason that would otherwise go in MIGRATION.md. The marker
// waives nothing; CI refuses a regenerated baseline whose diff carries
// none.
//
// Declarations are rendered without parameter names, so renaming a
// parameter is not a break; changing its type is.
var APICompat = &Analyzer{
	Name:  "apicompat",
	Doc:   "the exported API an importer can reach must not break the committed baseline",
	Run:   runAPICompat,
	Merge: mergeAPICompat,
}

// APIPackages are the packages whose exported surface is under contract:
// the root, the only one an importer can reach. (Var, not const: the
// fixture tests extend it.)
var APIPackages = map[string]bool{"cmfl": true}

// APIBaselinePath locates the snapshot, relative to the module root
// (absolute in tests).
var APIBaselinePath = filepath.Join("benchmarks", "api_baseline.json")

// apiBaseline is the on-disk snapshot schema.
type apiBaseline struct {
	Comment  string                       `json:"comment"`
	Packages map[string]map[string]string `json:"packages"`
}

const apiBaselineComment = "exported API snapshot enforced by cmfl-vet apicompat; regenerate with cmfl-vet -write-api-baseline after an intentional //cmfl:api-change"

func runAPICompat(pass *Pass) {
	checkAPIChangeMarkers(pass)
	if !APIPackages[pass.Pkg.Path] {
		return
	}

	scope := pass.Pkg.Types.Scope()
	qual := types.RelativeTo(pass.Pkg.Types)
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		for _, sym := range renderAPISymbol(pass, obj, qual) {
			position := pass.Fset().Position(sym.pos)
			pass.Facts.API = append(pass.Facts.API, APISymbolFact{
				Sym: sym.key, Decl: sym.decl,
				File: position.Filename, Line: position.Line, Column: position.Column,
			})
		}
	}
}

// apiSym is one rendered surface entry before position resolution.
type apiSym struct {
	key  string
	decl string
	pos  token.Pos
}

// renderAPISymbol flattens one scope object into surface entries: the
// object itself, plus one entry per exported field and method for types
// and for aliases of module types (so moving a field is attributed to the
// field, not a whole-struct diff).
func renderAPISymbol(pass *Pass, obj types.Object, qual types.Qualifier) []apiSym {
	switch obj := obj.(type) {
	case *types.Const:
		return []apiSym{{obj.Name(), "const " + obj.Name() + " " + types.TypeString(obj.Type(), qual), obj.Pos()}}
	case *types.Var:
		return []apiSym{{obj.Name(), "var " + obj.Name() + " " + types.TypeString(obj.Type(), qual), obj.Pos()}}
	case *types.Func:
		sig, _ := obj.Type().(*types.Signature)
		return []apiSym{{obj.Name(), "func " + obj.Name() + sigString(sig, qual), obj.Pos()}}
	case *types.TypeName:
		named, _ := types.Unalias(obj.Type()).(*types.Named)
		if obj.IsAlias() {
			out := []apiSym{{obj.Name(), "type " + obj.Name() + " = " + types.TypeString(obj.Type(), qual), obj.Pos()}}
			if named != nil && pass.InModule(named.Obj()) {
				out = append(out, memberSyms(obj.Name(), named, qual)...)
			}
			return out
		}
		if named == nil {
			return nil
		}
		decl := "type " + obj.Name() + " " + types.TypeString(named.Underlying(), qual)
		switch named.Underlying().(type) {
		case *types.Struct:
			decl = "type " + obj.Name() + " struct"
		case *types.Interface:
			decl = "type " + obj.Name() + " interface"
		}
		return append([]apiSym{{obj.Name(), decl, obj.Pos()}}, memberSyms(obj.Name(), named, qual)...)
	}
	return nil
}

// memberSyms renders the exported fields and methods of named under name:
// struct fields, then the method set (an interface's methods are its
// method set).
func memberSyms(name string, named *types.Named, qual types.Qualifier) []apiSym {
	var out []apiSym
	method := func(m *types.Func, decl string) {
		if m.Exported() {
			sig, _ := m.Type().(*types.Signature)
			out = append(out, apiSym{name + "." + m.Name(), decl + m.Name() + sigString(sig, qual), m.Pos()})
		}
	}
	switch u := named.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				out = append(out, apiSym{name + "." + f.Name(), f.Name() + " " + types.TypeString(f.Type(), qual), f.Pos()})
			}
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			method(u.Method(i), "")
		}
		return out
	}
	for i := 0; i < named.NumMethods(); i++ {
		method(named.Method(i), "func ("+name+") ")
	}
	return out
}

// sigString renders a signature without parameter names: renames are not
// API breaks, type changes are.
func sigString(sig *types.Signature, qual types.Qualifier) string {
	if sig == nil {
		return "(?)"
	}
	var b strings.Builder
	b.WriteByte('(')
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		t := params.At(i).Type()
		if sig.Variadic() && i == params.Len()-1 {
			if sl, ok := t.(*types.Slice); ok {
				b.WriteString("...")
				t = sl.Elem()
			}
		}
		b.WriteString(types.TypeString(t, qual))
	}
	b.WriteByte(')')
	res := sig.Results()
	switch {
	case res.Len() == 1:
		b.WriteString(" " + types.TypeString(res.At(0).Type(), qual))
	case res.Len() > 1:
		b.WriteString(" (")
		for i := 0; i < res.Len(); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(types.TypeString(res.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// checkAPIChangeMarkers reports reasonless //cmfl:api-change markers: the
// marker exists to carry the migration story.
func checkAPIChangeMarkers(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if text, ok := strings.CutPrefix(c.Text, "//"+markerAPIChange); ok && strings.TrimSpace(text) == "" {
					pass.Reportf(c.Pos(), "cmfl:api-change marker without a reason: state what breaks and how callers migrate")
				}
			}
		}
	}
}

// mergeAPICompat diffs every package's recorded surface against the
// committed baseline. Packages absent from the baseline (new public
// packages) and packages with no recorded facts (filtered out of this run)
// are skipped.
func mergeAPICompat(mp *MergePass) {
	base, baselineFile, err := loadAPIBaseline(mp.RootDir)
	if err != nil {
		mp.Reportf(baselineFile, 1, 1, "cannot read API baseline: %v", err)
		return
	}
	if base == nil {
		return // no baseline committed yet: nothing to enforce
	}
	for _, t := range mp.Targets {
		want, ok := base.Packages[t.Path]
		if !ok || len(t.Facts.API) == 0 {
			continue
		}
		got := make(map[string]*APISymbolFact, len(t.Facts.API))
		for i := range t.Facts.API {
			got[t.Facts.API[i].Sym] = &t.Facts.API[i]
		}
		var syms []string
		for sym := range want {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			cur, present := got[sym]
			switch {
			case !present:
				mp.Reportf(baselineFile, 1, 1,
					"%s: exported symbol %s was removed (baseline: %q): breaking change needs //cmfl:api-change <reason> and a regenerated baseline",
					t.Path, sym, want[sym])
			case cur.Decl != want[sym]:
				mp.Reportf(cur.File, cur.Line, cur.Column,
					"%s: exported symbol %s changed from %q to %q: breaking change needs //cmfl:api-change <reason> and a regenerated baseline",
					t.Path, sym, want[sym], cur.Decl)
			default:
				mp.Subject()
			}
		}
	}
}

// loadAPIBaseline reads the snapshot; a missing file is (nil, path, nil).
func loadAPIBaseline(rootDir string) (*apiBaseline, string, error) {
	path := APIBaselinePath
	if !filepath.IsAbs(path) {
		path = filepath.Join(rootDir, path)
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, path, nil
	}
	if err != nil {
		return nil, path, err
	}
	var base apiBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, path, fmt.Errorf("%s: %w", path, err)
	}
	return &base, path, nil
}

// WriteAPIBaseline snapshots the API facts of a run into the baseline
// file. Packages with no recorded surface are omitted (they were not in
// the run's targets) — regenerate from a full run.
func WriteAPIBaseline(rootDir string, tf []*TargetFacts) error {
	base := apiBaseline{Comment: apiBaselineComment, Packages: make(map[string]map[string]string)}
	for _, t := range tf {
		if len(t.Facts.API) == 0 {
			continue
		}
		m := make(map[string]string, len(t.Facts.API))
		for _, s := range t.Facts.API {
			m[s.Sym] = s.Decl
		}
		base.Packages[t.Path] = m
	}
	path := APIBaselinePath
	if !filepath.IsAbs(path) {
		path = filepath.Join(rootDir, path)
	}
	data, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
