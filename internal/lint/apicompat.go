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

// APICompat gates the exported surface of the public packages against a
// committed snapshot, benchmarks/api_baseline.json. Removing or changing
// the declaration of a symbol the baseline records is a finding — the PR-7
// MIGRATION discipline (breaking changes ship with a written migration)
// turned into a gate cmfl-vet enforces instead of reviewers remembering it.
//
// Additions are always fine: the baseline is a floor, not a mirror. To
// accept an intentional break, regenerate the snapshot with
// `cmfl-vet -write-api-baseline` and add a //cmfl:api-change <reason>
// marker to any file of the package, the reason that would otherwise go in
// MIGRATION.md. The marker waives nothing; CI refuses a regenerated
// baseline whose diff carries none.
//
// Declarations are rendered without parameter names, so renaming a
// parameter is not a break; changing its type is.
var APICompat = &Analyzer{
	Name:  "apicompat",
	Doc:   "exported API of public packages must not break the committed baseline",
	Run:   runAPICompat,
	Merge: mergeAPICompat,
}

// APIPackages are the packages whose exported surface is under contract.
// (Var, not const: the fixture tests extend it.)
var APIPackages = map[string]bool{
	"cmfl":                    true,
	"cmfl/internal/compress":  true,
	"cmfl/internal/emu":       true,
	"cmfl/internal/emu/shard": true,
	"cmfl/internal/fl":        true,
	"cmfl/internal/mtl":       true,
	"cmfl/internal/telemetry": true,
}

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
	if !APIPackages[pass.Pkg.Path] {
		return
	}
	checkAPIChangeMarkers(pass)

	scope := pass.Pkg.Types.Scope()
	qual := types.RelativeTo(pass.Pkg.Types)
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		for _, sym := range renderAPISymbol(obj, qual) {
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
// (so moving a field is attributed to the field, not a whole-struct diff).
func renderAPISymbol(obj types.Object, qual types.Qualifier) []apiSym {
	switch obj := obj.(type) {
	case *types.Const:
		return []apiSym{{obj.Name(), "const " + obj.Name() + " " + types.TypeString(obj.Type(), qual), obj.Pos()}}
	case *types.Var:
		return []apiSym{{obj.Name(), "var " + obj.Name() + " " + types.TypeString(obj.Type(), qual), obj.Pos()}}
	case *types.Func:
		sig, _ := obj.Type().(*types.Signature)
		return []apiSym{{obj.Name(), "func " + obj.Name() + sigString(sig, qual), obj.Pos()}}
	case *types.TypeName:
		if obj.IsAlias() {
			return []apiSym{{obj.Name(), "type " + obj.Name() + " = " + types.TypeString(obj.Type(), qual), obj.Pos()}}
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			return nil
		}
		var out []apiSym
		switch u := named.Underlying().(type) {
		case *types.Struct:
			out = append(out, apiSym{obj.Name(), "type " + obj.Name() + " struct", obj.Pos()})
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				if !f.Exported() {
					continue
				}
				out = append(out, apiSym{
					obj.Name() + "." + f.Name(),
					f.Name() + " " + types.TypeString(f.Type(), qual),
					f.Pos(),
				})
			}
		case *types.Interface:
			out = append(out, apiSym{obj.Name(), "type " + obj.Name() + " interface", obj.Pos()})
			for i := 0; i < u.NumMethods(); i++ {
				m := u.Method(i)
				if !m.Exported() {
					continue
				}
				sig, _ := m.Type().(*types.Signature)
				out = append(out, apiSym{
					obj.Name() + "." + m.Name(),
					m.Name() + sigString(sig, qual),
					m.Pos(),
				})
			}
			return out // interface methods are the method set; skip NumMethods below
		default:
			out = append(out, apiSym{obj.Name(), "type " + obj.Name() + " " + types.TypeString(named.Underlying(), qual), obj.Pos()})
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if !m.Exported() {
				continue
			}
			sig, _ := m.Type().(*types.Signature)
			out = append(out, apiSym{
				obj.Name() + "." + m.Name(),
				"func (" + obj.Name() + ") " + m.Name() + sigString(sig, qual),
				m.Pos(),
			})
		}
		return out
	}
	return nil
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
