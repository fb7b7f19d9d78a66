package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestFloatSumFixture runs the order-sensitive accumulation prover over its
// fixture. Like the suppression contract, the reasonless marker needs
// special handling: its finding sits on the marker line, which cannot carry
// a want comment (the comment text would become the reason and make the
// marker well-formed), so it is counted out-of-band.
func TestFloatSumFixture(t *testing.T) {
	pkg, mod := loadFixture(t, "floatsum")
	if FloatSumPackages[pkg.Path] {
		t.Fatalf("fixture %s unexpectedly already in scope", pkg.Path)
	}
	FloatSumPackages[pkg.Path] = true
	defer delete(FloatSumPackages, pkg.Path)

	wants := collectWants(t, mod, pkg)
	res, counts := subjects(mod, []*Package{pkg}, []*Analyzer{FloatSum})

	var malformed int
	rest := res
	rest.Findings = nil
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "malformed //cmfl:order-pinned") {
			malformed++
			continue
		}
		rest.Findings = append(rest.Findings, f)
	}
	if malformed != 1 {
		t.Errorf("malformed order-pinned findings = %d, want 1 (the reasonless marker)", malformed)
	}
	matchWants(t, wants, rest)

	// pinnedSlice and pinnedStmt are the two honored pins; the map, channel,
	// reasonless and stale pins must all be refused.
	if counts["floatsum"] != 2 {
		t.Errorf("subjects = %d, want 2 (pinnedSlice, pinnedStmt)", counts["floatsum"])
	}
}

// TestWallClockFixture checks the virtual-clock prover's findings, and
// that the transitive witness names its two-hop chain through inner.
func TestWallClockFixture(t *testing.T) {
	res := checkScopedFixture(t, "wallclock", []*Analyzer{WallClock}, WallClockPackages)
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "reaches time.Now") && !strings.Contains(f.Message, "Stamp -> hidden") {
			t.Errorf("transitive finding does not carry the call chain: %s", f.Message)
		}
	}
}

// TestGoLifeFixture checks the goroutine-lifecycle prover's findings and
// that both join kinds it proves are exercised: a spawn whose join went
// unseen would surface as an unexpected finding, and the subject count
// names the joined spawns.
func TestGoLifeFixture(t *testing.T) {
	pkg, mod := loadFixture(t, "golife")
	if GoLifePackages[pkg.Path] {
		t.Fatalf("fixture %s unexpectedly already in scope", pkg.Path)
	}
	GoLifePackages[pkg.Path] = true
	defer delete(GoLifePackages, pkg.Path)

	wants := collectWants(t, mod, pkg)
	res, counts := subjects(mod, []*Package{pkg}, []*Analyzer{GoLife})
	matchWants(t, wants, res)
	// start's WaitGroup literal, serve (done channel), viaHelper's literal,
	// nested's inner literal and continueOuter.
	if counts["golife"] != 5 {
		t.Errorf("subjects = %d, want 5 joined spawns", counts["golife"])
	}
}

// TestSARIFOutput validates the emitted document structurally against the
// SARIF 2.1.0 shape code scanning requires: version/schema, one run, a
// rule table every result indexes consistently, and ROOT-relative URIs.
func TestSARIFOutput(t *testing.T) {
	pkg, mod := loadFixture(t, "floateq")
	res := Run(mod, []*Package{pkg}, []*Analyzer{FloatEq})
	if len(res.Findings) == 0 {
		t.Fatal("fixture produced no findings to emit")
	}
	rootDir := filepath.Dir(res.Findings[0].File)

	var buf bytes.Buffer
	if err := WriteSARIF(&buf, rootDir, All(), res); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var log sarifLog
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&log); err != nil {
		t.Fatalf("emitted SARIF does not decode against the expected shape: %v", err)
	}

	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-schema-2.1.0.json") {
		t.Errorf("$schema = %q does not pin 2.1.0", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "cmfl-vet" {
		t.Errorf("driver name = %q, want cmfl-vet", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) < len(All()) {
		t.Errorf("rules = %d, want at least one per analyzer (%d)", len(run.Tool.Driver.Rules), len(All()))
	}
	root, ok := run.OriginalURIBaseIDs["ROOT"]
	if !ok || !strings.HasPrefix(root.URI, "file://") || !strings.HasSuffix(root.URI, "/") {
		t.Errorf("originalUriBaseIds.ROOT = %+v, want a file:// URI ending in /", root)
	}
	if len(run.Results) != len(res.Findings) {
		t.Errorf("results = %d, want %d (one per finding)", len(run.Results), len(res.Findings))
	}
	for i, r := range run.Results {
		if r.Level != "error" {
			t.Errorf("result %d level = %q, want error", i, r.Level)
		}
		if r.Message.Text == "" {
			t.Errorf("result %d has an empty message", i)
		}
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Fatalf("result %d ruleIndex %d out of range", i, r.RuleIndex)
		}
		if run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result %d: ruleIndex %d resolves to %q, ruleId says %q",
				i, r.RuleIndex, run.Tool.Driver.Rules[r.RuleIndex].ID, r.RuleID)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d: locations = %d, want 1", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.Region.StartLine < 1 {
			t.Errorf("result %d: startLine = %d, want >= 1", i, loc.Region.StartLine)
		}
		if loc.ArtifactLocation.URIBaseID != "ROOT" {
			t.Errorf("result %d: uriBaseId = %q, want ROOT (file is under rootDir)", i, loc.ArtifactLocation.URIBaseID)
		}
		if uri := loc.ArtifactLocation.URI; uri == "" || strings.Contains(uri, "\\") || strings.HasPrefix(uri, "/") {
			t.Errorf("result %d: uri = %q, want a relative slash-separated path", i, uri)
		}
	}

	// A root that does not contain the findings forces the absolute-URI
	// fallback: no baseId, file:// scheme.
	buf.Reset()
	if err := WriteSARIF(&buf, t.TempDir(), All(), res); err != nil {
		t.Fatalf("WriteSARIF (foreign root): %v", err)
	}
	var foreign sarifLog
	if err := json.Unmarshal(buf.Bytes(), &foreign); err != nil {
		t.Fatal(err)
	}
	for i, r := range foreign.Runs[0].Results {
		loc := r.Locations[0].PhysicalLocation.ArtifactLocation
		if loc.URIBaseID != "" || !strings.HasPrefix(loc.URI, "file://") {
			t.Errorf("foreign-root result %d: artifact = %+v, want absolute file:// URI with no baseId", i, loc)
		}
	}
}

// TestV4RepoFactsNonVacuous guards the three v4 provers against silently
// matching nothing on the real module: the runtime packages must yield
// routed accumulations or honored pins, vclock hook reads, and proven
// goroutine joins, or TestRepoClean's zero findings for these analyzers
// proves nothing.
func TestV4RepoFactsNonVacuous(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the runtime packages")
	}
	targets, mod, err := Load(filepath.Join("..", ".."), []string{
		"./internal/emu", "./internal/emu/shard", "./internal/sim",
		"./internal/fl", "./internal/telemetry",
	})
	if err != nil {
		t.Fatalf("loading runtime packages: %v", err)
	}
	analyzers := []*Analyzer{FloatSum, WallClock, GoLife}
	res, counts := subjects(mod, targets, analyzers)
	for _, f := range res.Findings {
		t.Errorf("repo finding: %s", f)
	}
	for _, a := range analyzers {
		if counts[a.Name] == 0 {
			t.Errorf("%s has no subject in the runtime packages: the prover went vacuous", a.Name)
		}
	}
}
