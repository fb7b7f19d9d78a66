package lint

import (
	"bytes"
	"encoding/json"
	"os"
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
	res := Run(mod, []*Package{pkg}, []*Analyzer{FloatSum})

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

	_, tf := analyze(mod, []*Package{pkg}, []*Analyzer{FloatSum}, nil)
	var pinned int
	for _, target := range tf {
		for _, f := range target.Facts.FloatSums {
			if f.Kind == "pinned" {
				pinned++
			}
		}
	}
	// pinnedSlice and pinnedStmt are the two honored pins; the map, channel,
	// and reasonless pins must all be refused.
	if pinned != 2 {
		t.Errorf("pinned facts = %d, want 2 (pinnedSlice, pinnedStmt)", pinned)
	}
}

// TestWallClockFixture checks the virtual-clock prover's findings and that
// the rewrite gating follows the declared hooks: the fixture declares now()
// but not sleep(), so time.Now/time.Since findings carry edits while the
// time.Sleep finding must not.
func TestWallClockFixture(t *testing.T) {
	res := checkScopedFixture(t, "wallclock", []*Analyzer{WallClock}, WallClockPackages)

	for _, f := range res.Findings {
		switch {
		case strings.Contains(f.Message, "calls time.Now directly"):
			if len(f.Edits) != 1 || f.Edits[0].NewText != "now()" {
				t.Errorf("time.Now finding at %s:%d: edits = %v, want one now() rewrite", f.File, f.Line, f.Edits)
			}
		case strings.Contains(f.Message, "calls time.Since directly"):
			if len(f.Edits) != 1 || f.Edits[0].NewText != "now().Sub(start)" {
				t.Errorf("time.Since finding at %s:%d: edits = %v, want one now().Sub(start) rewrite", f.File, f.Line, f.Edits)
			}
		case strings.Contains(f.Message, "calls time.Sleep directly"):
			if len(f.Edits) != 0 {
				t.Errorf("time.Sleep finding carries edits %v, but the fixture declares no sleep hook", f.Edits)
			}
			if strings.Contains(f.Message, "fixable") {
				t.Errorf("time.Sleep finding advertises a fix without a hook: %s", f.Message)
			}
		case strings.Contains(f.Message, "reaches time.Now"):
			// The transitive witness must name the two-hop chain through inner.
			if !strings.Contains(f.Message, "Stamp -> hidden") {
				t.Errorf("transitive finding does not carry the call chain: %s", f.Message)
			}
		}
	}
}

// TestGoLifeFixture checks the goroutine-lifecycle prover's findings and
// that every join kind the analyzer claims to prove is actually exercised
// by the fixture's clean spawns.
func TestGoLifeFixture(t *testing.T) {
	pkg, mod := loadFixture(t, "golife")
	if GoLifePackages[pkg.Path] {
		t.Fatalf("fixture %s unexpectedly already in scope", pkg.Path)
	}
	GoLifePackages[pkg.Path] = true
	defer delete(GoLifePackages, pkg.Path)

	wants := collectWants(t, mod, pkg)
	res := Run(mod, []*Package{pkg}, []*Analyzer{GoLife})
	matchWants(t, wants, res)

	_, tf := analyze(mod, []*Package{pkg}, []*Analyzer{GoLife}, nil)
	joins := make(map[string]int)
	for _, target := range tf {
		for _, f := range target.Facts.GoLife {
			joins[f.Join]++
		}
	}
	for _, kind := range []string{"waitgroup", "done-channel", "stop-channel", "context"} {
		if joins[kind] == 0 {
			t.Errorf("no %q join proven in the fixture: the evidence path went vacuous (got %v)", kind, joins)
		}
	}
}

// TestFixGoldenTree is the end-to-end -fix proof: the input tree is copied
// into a temp module, RunFix rewrites it, and the result must match the
// golden tree byte-for-byte, converge in one pass, and be idempotent.
func TestFixGoldenTree(t *testing.T) {
	dir := t.TempDir()
	copyFixtureTree(t, filepath.Join("testdata", "fixtree", "input"), dir)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixtree\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if WallClockPackages["fixtree"] {
		t.Fatal("fixtree unexpectedly already in scope")
	}
	WallClockPackages["fixtree"] = true
	defer delete(WallClockPackages, "fixtree")

	res, sum, err := RunFix(dir, []string{"."}, []*Analyzer{WallClock}, RunOptions{})
	if err != nil {
		t.Fatalf("RunFix: %v", err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("post-fix findings remain: %v", res.Findings)
	}
	if sum.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 (all fixes apply in one pass)", sum.Iterations)
	}
	wantChanged := []string{filepath.Join(dir, "wall.go")}
	if len(sum.FilesChanged) != 1 || sum.FilesChanged[0] != wantChanged[0] {
		t.Errorf("files changed = %v, want %v", sum.FilesChanged, wantChanged)
	}

	goldenDir := filepath.Join("testdata", "fixtree", "golden")
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverges from golden after fix:\n--- got ---\n%s\n--- want ---\n%s", e.Name(), got, want)
		}
	}

	// Idempotence: a second run must find nothing to do.
	_, sum2, err := RunFix(dir, []string{"."}, []*Analyzer{WallClock}, RunOptions{})
	if err != nil {
		t.Fatalf("second RunFix: %v", err)
	}
	if sum2.Iterations != 0 || len(sum2.FilesChanged) != 0 {
		t.Errorf("second RunFix not idempotent: iterations=%d changed=%v", sum2.Iterations, sum2.FilesChanged)
	}
}

// copyFixtureTree copies every regular file in src into dst (flat trees
// only — the fixtree fixture has no subdirectories).
func copyFixtureTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("fixture tree %s unexpectedly has subdirectory %s", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyEdits pins the splice validator: overlap and out-of-bounds edits
// must abort before anything is written.
func TestApplyEdits(t *testing.T) {
	src := []byte("abcdef")
	got, err := applyEdits(src, []TextEdit{
		{Start: 4, End: 5, NewText: "E"},
		{Start: 1, End: 2, NewText: "B"},
	})
	if err != nil || string(got) != "aBcdEf" {
		t.Errorf("applyEdits = %q, %v; want aBcdEf", got, err)
	}
	if _, err := applyEdits(src, []TextEdit{{Start: 1, End: 3}, {Start: 2, End: 4}}); err == nil {
		t.Error("overlapping edits not rejected")
	}
	if _, err := applyEdits(src, []TextEdit{{Start: 4, End: 9}}); err == nil {
		t.Error("out-of-bounds edit not rejected")
	}
	if _, err := applyEdits(src, []TextEdit{{Start: -1, End: 2}}); err == nil {
		t.Error("negative offset not rejected")
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
// accumulator routings, honored pins, vclock hook reads, scanned scopes,
// and proven goroutine joins, or TestRepoClean's zero findings for these
// analyzers proves nothing.
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
	_, tf := analyze(mod, targets, []*Analyzer{FloatSum, WallClock, GoLife}, nil)

	floatKinds := make(map[string]int)
	clockKinds := make(map[string]int)
	joinKinds := make(map[string]int)
	for _, target := range tf {
		for _, f := range target.Facts.FloatSums {
			floatKinds[f.Kind]++
		}
		for _, f := range target.Facts.Clocks {
			clockKinds[f.Kind]++
		}
		for _, f := range target.Facts.GoLife {
			joinKinds[f.Join]++
		}
	}
	for _, want := range []string{"accumulator", "pinned"} {
		if floatKinds[want] == 0 {
			t.Errorf("no %q floatsum facts recovered: the prover went vacuous (got %v)", want, floatKinds)
		}
	}
	for _, want := range []string{"hook-read", "scope"} {
		if clockKinds[want] == 0 {
			t.Errorf("no %q wallclock facts recovered: the prover went vacuous (got %v)", want, clockKinds)
		}
	}
	if joinKinds["waitgroup"] == 0 || len(joinKinds) == 0 {
		t.Errorf("no waitgroup joins recovered from the runtime packages: the prover went vacuous (got %v)", joinKinds)
	}
}
