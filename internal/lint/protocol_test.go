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

func TestLockOrderFixture(t *testing.T) {
	res := checkScopedFixture(t, "lockorder", []*Analyzer{LockOrder}, ConcurrencyPackages)
	// One cycle, one finding — not one per edge or per participating lock.
	if len(res.Findings) != 1 {
		t.Errorf("findings = %d, want exactly 1 for the two-lock cycle: %v", len(res.Findings), res.Findings)
	}
}

// writeTestBaseline marshals a baseline for pkgPath into a temp file and
// points APIBaselinePath at it (with APIPackages extended) for the test's
// duration.
func writeTestBaseline(t *testing.T, pkgPath string, symbols map[string]string) {
	t.Helper()
	base := apiBaseline{Comment: apiBaselineComment, Packages: map[string]map[string]string{pkgPath: symbols}}
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
	})

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
	})

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
	})

	res := Run(mod, []*Package{pkg}, []*Analyzer{APICompat})
	for _, f := range res.Findings {
		if !strings.Contains(f.Message, "without a reason") {
			t.Errorf("unexpected finding for a pure addition: %s", f)
		}
	}
}

// TestProtoStateRepoFactsNonVacuous guards the analyzer against silently
// matching nothing on the real module: internal/emu must yield writes and
// reads on both sides, or the zero-findings acceptance run proves nothing.
func TestProtoStateRepoFactsNonVacuous(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks internal/emu")
	}
	targets, mod, err := Load(filepath.Join("..", ".."), []string{"./internal/emu", "./internal/emu/shard"})
	if err != nil {
		t.Fatalf("loading internal/emu: %v", err)
	}
	_, tf := analyze(mod, targets, []*Analyzer{ProtoState, APICompat}, nil)
	ops := make(map[string]int)
	var apiSyms int
	for _, target := range tf {
		for _, f := range target.Facts.Proto {
			ops[f.Op+"/"+f.Side]++
		}
		apiSyms += len(target.Facts.API)
	}
	for _, want := range []string{"frame-write/client", "frame-write/server", "frame-read/client", "frame-read/server"} {
		if ops[want] == 0 {
			t.Errorf("no %q facts recovered from internal/emu: the automaton recovery went vacuous (got %v)", want, ops)
		}
	}
	if apiSyms == 0 {
		t.Error("no API surface facts recovered from internal/emu")
	}
}
