package lint

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// loadFixture type-checks one package under testdata/src. Fixtures are
// loaded per test (not shared) so suppression markers and metric-family
// state in one fixture cannot leak into another's run.
func loadFixture(t *testing.T, name string) (*Package, *Module) {
	t.Helper()
	targets, mod, err := Load(filepath.Join("testdata", "src", name), []string{"."})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(targets) != 1 {
		t.Fatalf("fixture %s: got %d target packages, want 1", name, len(targets))
	}
	return targets[0], mod
}

// wantRe matches the expectation comments fixtures carry:
// `// want "regexp"` (multiple quoted patterns allowed on one line).
var wantRe = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	pattern *regexp.Regexp
	met     bool
}

// collectWants indexes every `// want` comment by (file base name, line).
func collectWants(t *testing.T, mod *Module, pkg *Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := mod.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				ms := wantRe.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment without quoted pattern: %s", key, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], &expectation{pattern: re})
				}
			}
		}
	}
	return wants
}

// checkFixture runs the analyzers over one fixture package and matches the
// findings against its want comments, one-to-one.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) Result {
	t.Helper()
	pkg, mod := loadFixture(t, name)
	wants := collectWants(t, mod, pkg)
	res := Run(mod, []*Package{pkg}, analyzers)
	matchWants(t, wants, res)
	return res
}

// matchWants pairs findings against want expectations one-to-one.
func matchWants(t *testing.T, wants map[string][]*expectation, res Result) {
	t.Helper()
	for _, f := range res.Findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.met && w.pattern.MatchString(f.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: [%s] %s", key, f.Analyzer, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.met {
				t.Errorf("missing finding at %s: no message matched %q", key, w.pattern)
			}
		}
	}
}

// subjects runs analyzers over targets with stats and returns the result
// and each analyzer's subject count by name.
func subjects(mod *Module, targets []*Package, analyzers []*Analyzer) (Result, map[string]int) {
	res, _ := analyze(mod, targets, analyzers, &RunStats{})
	counts := make(map[string]int)
	for _, a := range res.Stats.Analyzers {
		counts[a.Name] = a.Subjects
	}
	return res, counts
}

// checkScopedFixture is checkFixture for analyzers gated on a package-scope
// set (ConcurrencyPackages, SeedTaintPackages): the fixture package is
// promoted into the scope for the duration of the run.
func checkScopedFixture(t *testing.T, name string, analyzers []*Analyzer, scope map[string]bool) Result {
	t.Helper()
	pkg, mod := loadFixture(t, name)
	if scope[pkg.Path] {
		t.Fatalf("fixture %s unexpectedly already in scope", pkg.Path)
	}
	scope[pkg.Path] = true
	defer delete(scope, pkg.Path)
	wants := collectWants(t, mod, pkg)
	res := Run(mod, []*Package{pkg}, analyzers)
	matchWants(t, wants, res)
	return res
}

func TestHotPathAllocFixture(t *testing.T) {
	res := checkFixture(t, "hotpathalloc", []*Analyzer{HotPathAlloc})
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the justified direct append)", res.Suppressed)
	}
}

func TestDeterministicOrderFixture(t *testing.T) {
	checkFixture(t, "deterministicorder", []*Analyzer{DeterministicOrder})
}

func TestMetricSchemaFixture(t *testing.T) {
	checkFixture(t, "metricschema", []*Analyzer{MetricSchema})
}

func TestErrCheckFixture(t *testing.T) {
	res := checkFixture(t, "errcheck", []*Analyzer{ErrCheck})
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0", res.Suppressed)
	}
}

func TestFloatEqFixture(t *testing.T) {
	checkFixture(t, "floateq", []*Analyzer{FloatEq})
}

// TestSuppressionContract asserts the lint-ignore edge cases explicitly:
// the malformed-marker line cannot carry a want comment (the comment text
// would make the marker well-formed).
func TestSuppressionContract(t *testing.T) {
	pkg, mod := loadFixture(t, "suppress")
	res := Run(mod, []*Package{pkg}, []*Analyzer{ErrCheck})

	if res.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (same-line and line-above markers)", res.Suppressed)
	}
	var malformed, errcheck int
	for _, f := range res.Findings {
		switch {
		case f.Analyzer == "lint" && strings.Contains(f.Message, "malformed //cmfl:lint-ignore"):
			malformed++
		case f.Analyzer == "errcheck":
			errcheck++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if malformed != 1 {
		t.Errorf("malformed-marker findings = %d, want 1", malformed)
	}
	// missingReason (marker without reason does not silence) and
	// wrongAnalyzer (floateq marker does not silence errcheck).
	if errcheck != 2 {
		t.Errorf("surviving errcheck findings = %d, want 2", errcheck)
	}
}

// TestGeneratedAndTestFilesSkipped: gen.go (generated header) and
// skipped_test.go are full of violations; only plain.go may report.
func TestGeneratedAndTestFilesSkipped(t *testing.T) {
	pkg, mod := loadFixture(t, "generated")
	for _, f := range pkg.Files {
		name := filepath.Base(mod.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("loader parsed test file %s", name)
		}
	}
	res := Run(mod, []*Package{pkg}, All())
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly the one in plain.go", res.Findings)
	}
	f := res.Findings[0]
	if filepath.Base(f.File) != "plain.go" || f.Analyzer != "errcheck" {
		t.Errorf("finding = %s, want the errcheck finding in plain.go", f)
	}
}

// TestResultJSONRoundTrip: the -json document must survive a decode/encode
// cycle bit-for-bit, so CI tooling can post-process it.
func TestResultJSONRoundTrip(t *testing.T) {
	pkg, mod := loadFixture(t, "floateq")
	res := Run(mod, []*Package{pkg}, []*Analyzer{FloatEq})
	if len(res.Findings) == 0 {
		t.Fatal("fixture produced no findings to round-trip")
	}
	for _, orig := range []Result{res, {}} {
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(orig, back) {
			t.Errorf("round trip changed the result:\n  orig: %+v\n  back: %+v", orig, back)
		}
	}
}

// TestRepoClean is the acceptance gate: the repository itself must carry no
// findings (every true positive was fixed or audited in place), every
// analyzer must have proved its rule on at least one repo site (zero
// findings from an analyzer with no subjects proves nothing), and `./...`
// expansion must never descend into testdata.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	targets, mod, err := Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range targets {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("./... expansion descended into %s", pkg.Path)
		}
	}
	res, counts := subjects(mod, targets, All())
	for _, f := range res.Findings {
		t.Errorf("repo finding: %s", f)
	}
	for _, a := range All() {
		if counts[a.Name] == 0 {
			t.Errorf("%s has no subject in the repository: its rule applied nowhere, so its silence proves nothing", a.Name)
		}
	}
	if res.Suppressed == 0 {
		t.Error("suppressed = 0: the audited //cmfl:lint-ignore markers went unseen")
	}
}
