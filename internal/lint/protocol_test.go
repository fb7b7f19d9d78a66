package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExhaustiveFixture(t *testing.T) {
	checkFixture(t, "exhaustive", []*Analyzer{Exhaustive})
}

func TestProtoStateFixture(t *testing.T) {
	res := checkFixture(t, "protostate", []*Analyzer{ProtoState})
	// The acceptance shape: deleting the one server-side reader of a
	// written kind yields exactly one duality finding (msgPing), not one
	// per write site or per round of merging.
	duality := 0
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "-side reader") {
			duality++
		}
	}
	if duality != 1 {
		t.Errorf("duality findings = %d, want exactly 1 (msgPing): %v", duality, res.Findings)
	}
}

// writeTestBaseline marshals a baseline for pkgPath (and any others) into a
// temp file and points APIBaselinePath at it, with APIPackages extended by
// pkgPath alone, for the test's duration.
func writeTestBaseline(t *testing.T, pkgPath string, symbols map[string]string, others map[string]map[string]string) {
	t.Helper()
	base := apiBaseline{Comment: apiBaselineComment, Packages: map[string]map[string]string{pkgPath: symbols}}
	for path, syms := range others {
		base.Packages[path] = syms
	}
	data, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "api_baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	oldPath := APIBaselinePath
	APIBaselinePath = path
	APIPackages[pkgPath] = true
	t.Cleanup(func() {
		APIBaselinePath = oldPath
		delete(APIPackages, pkgPath)
	})
}

func TestAPICompatBaselineDiff(t *testing.T) {
	pkg, mod := loadFixture(t, "apicompat")
	writeTestBaseline(t, pkg.Path, map[string]string{
		"Old":       "func Old(int) string", // fixture returns int: changed
		"Removed":   "func Removed()",       // absent from the fixture: removed
		"Cfg":       "type Cfg struct",      // matches
		"Cfg.Limit": "Limit int",            // matches
	}, nil)

	res := Run(mod, []*Package{pkg}, []*Analyzer{APICompat})
	var removed, changed, reasonless int
	for _, f := range res.Findings {
		switch {
		case strings.Contains(f.Message, "was removed"):
			removed++
			if f.File != APIBaselinePath {
				t.Errorf("removal finding at %s, want the baseline file %s", f.File, APIBaselinePath)
			}
		case strings.Contains(f.Message, "changed from"):
			changed++
			if filepath.Base(f.File) != "apicompat.go" {
				t.Errorf("change finding at %s, want the fixture source file", f.File)
			}
		case strings.Contains(f.Message, "without a reason"):
			reasonless++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if removed != 1 || changed != 1 || reasonless != 1 {
		t.Errorf("removed/changed/reasonless = %d/%d/%d, want 1/1/1: %v", removed, changed, reasonless, res.Findings)
	}
}

// TestAPICompatMarkerWaivesNothing: a package carrying a reasoned
// //cmfl:api-change marker is checked like any other. An intentional break
// regenerates the baseline; the marker is its migration note.
func TestAPICompatMarkerWaivesNothing(t *testing.T) {
	pkg, mod := loadFixture(t, "apicompatmarked")
	writeTestBaseline(t, pkg.Path, map[string]string{
		"Old":     "func Old(int) string",
		"Removed": "func Removed()",
	}, nil)

	res := Run(mod, []*Package{pkg}, []*Analyzer{APICompat})
	var removed, changed int
	for _, f := range res.Findings {
		switch {
		case strings.Contains(f.Message, "Removed was removed"):
			removed++
		case strings.Contains(f.Message, "Old changed from"):
			changed++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if removed != 1 || changed != 1 {
		t.Errorf("removed/changed = %d/%d, want 1/1: the marked package must still be checked: %v", removed, changed, res.Findings)
	}
}

func TestAPICompatAdditionsAreFree(t *testing.T) {
	pkg, mod := loadFixture(t, "apicompat")
	// Baseline records a strict subset of the surface (and the fixture's
	// reasonless marker is removed from consideration by matching only
	// baseline symbols): no diff findings, only the reasonless marker.
	writeTestBaseline(t, pkg.Path, map[string]string{
		"Cfg":       "type Cfg struct",
		"Cfg.Limit": "Limit int",
	}, nil)

	res := Run(mod, []*Package{pkg}, []*Analyzer{APICompat})
	for _, f := range res.Findings {
		if !strings.Contains(f.Message, "without a reason") {
			t.Errorf("unexpected finding for a pure addition: %s", f)
		}
	}
}

// TestAPICompatAliasReach: the contract follows a root alias into the
// module type it names, so removing a field of the aliased type is a
// finding, and stops there: a package outside APIPackages renames freely,
// even when an old baseline still records its symbols.
func TestAPICompatAliasReach(t *testing.T) {
	targets, mod, err := Load(filepath.Join("testdata", "src", "apicompat"), []string{".", "./inner"})
	if err != nil || len(targets) != 2 {
		t.Fatalf("loading the apicompat fixture and its inner package: %d targets, %v", len(targets), err)
	}
	root, inner := targets[0], targets[1]
	if strings.HasSuffix(root.Path, "/inner") {
		root, inner = inner, root
	}
	writeTestBaseline(t, root.Path, map[string]string{
		"Opts":        "type Opts = " + inner.Path + ".Opts",
		"Opts.Rounds": "Rounds int",
		"Opts.Seed":   "Seed int64",
	}, map[string]map[string]string{inner.Path: {"Helper": "func Helper()"}})

	res := Run(mod, targets, []*Analyzer{APICompat})
	var removed []string
	for _, f := range res.Findings {
		switch {
		case strings.Contains(f.Message, "was removed"):
			removed = append(removed, f.Message)
		case !strings.Contains(f.Message, "without a reason"):
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if len(removed) != 1 || !strings.Contains(removed[0], "symbol Opts.Seed was removed") {
		t.Errorf("removals = %v, want exactly Opts.Seed (the aliased type's field); inner's Helper is out of reach", removed)
	}
}

// TestProtoStateRepoFactsNonVacuous guards the protocol analyzers against
// silently matching nothing on the real module: internal/emu's frame kinds
// must be matched writer to reader, and the root's exported surface must be
// compared with the baseline, or the zero-findings acceptance run proves
// nothing.
func TestProtoStateRepoFactsNonVacuous(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the root and internal/emu")
	}
	targets, mod, err := Load(filepath.Join("..", ".."), []string{".", "./internal/emu", "./internal/emu/shard"})
	if err != nil {
		t.Fatalf("loading the root and internal/emu: %v", err)
	}
	res, counts := subjects(mod, targets, []*Analyzer{ProtoState, APICompat})
	for _, f := range res.Findings {
		t.Errorf("repo finding: %s", f)
	}
	for _, a := range []*Analyzer{ProtoState, APICompat} {
		if counts[a.Name] == 0 {
			t.Errorf("%s has no subject in the root and internal/emu: it went vacuous", a.Name)
		}
	}
}
