package lint

import (
	"strings"
	"testing"
)

// TestHotPathTransitiveFixture is the acceptance case for the call-graph
// rewrite: the allocation sits two calls below the annotation and the
// finding carries the rendered call path.
func TestHotPathTransitiveFixture(t *testing.T) {
	res := checkFixture(t, "hotpathtrans", []*Analyzer{HotPathAlloc})
	// The callee-side justification pre-empts the finding inside the walk,
	// so it does not count as a suppression of a surfaced finding.
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0", res.Suppressed)
	}
	found := false
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "level1 → level2") {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding rendered the two-hop call path; findings: %v", res.Findings)
	}
}

func TestConcSafetyFixture(t *testing.T) {
	checkScopedFixture(t, "concsafety", []*Analyzer{ConcSafety}, ConcurrencyPackages)
}

// TestConcSafetyScopeGate: outside ConcurrencyPackages the same fixture
// must stay silent — the analyzer is scoped, not global.
func TestConcSafetyScopeGate(t *testing.T) {
	pkg, mod := loadFixture(t, "concsafety")
	res := Run(mod, []*Package{pkg}, []*Analyzer{ConcSafety})
	if len(res.Findings) != 0 {
		t.Errorf("concsafety fired outside its package scope: %v", res.Findings)
	}
}

// TestGoroLeakFixture pins the goroutine-leak cases golife owns: a spawned
// body whose execution reaches a loop nothing leaves has no reachable exit,
// whether the loop is in the literal itself or two calls below the spawned
// function, while a loop whose stop case returns stays silent.
func TestGoroLeakFixture(t *testing.T) {
	res := checkScopedFixture(t, "golife", []*Analyzer{GoLife}, GoLifePackages)
	for _, want := range []string{
		"spawns function literal with no reachable exit: the infinite loop at",
		"spawns deep with no reachable exit",
	} {
		found := false
		for _, f := range res.Findings {
			if strings.Contains(f.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no leak finding %q; findings: %v", want, res.Findings)
		}
	}
}

// TestDeterministicOrderEnginePackageRule pins the package-wide ban on the
// global math/rand source, which seedtaint owns: inside its package scope an
// unannotated function's rand.Intn is flagged, and deterministicorder, which
// keeps only its map-range rule, does not report it a second time.
func TestDeterministicOrderEnginePackageRule(t *testing.T) {
	res := checkScopedFixture(t, "seedtaint", []*Analyzer{SeedTaint}, SeedTaintPackages)
	found := false
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "global math/rand source (Intn) in packageRand") {
			found = true
		}
	}
	if !found {
		t.Errorf("the unannotated packageRand's global rand draw is not flagged; findings: %v", res.Findings)
	}

	pkg, mod := loadFixture(t, "seedtaint")
	if got := Run(mod, []*Package{pkg}, []*Analyzer{DeterministicOrder}); len(got.Findings) != 0 {
		t.Errorf("deterministicorder reports global rand draws seedtaint owns: %v", got.Findings)
	}
}

func TestSeedTaintFixture(t *testing.T) {
	checkScopedFixture(t, "seedtaint", []*Analyzer{SeedTaint}, SeedTaintPackages)
}

// TestSeedTaintScopeGate mirrors TestConcSafetyScopeGate.
func TestSeedTaintScopeGate(t *testing.T) {
	pkg, mod := loadFixture(t, "seedtaint")
	res := Run(mod, []*Package{pkg}, []*Analyzer{SeedTaint})
	if len(res.Findings) != 0 {
		t.Errorf("seedtaint fired outside its package scope: %v", res.Findings)
	}
}
