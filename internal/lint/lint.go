package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Analyzer is one named check over a type-checked package. Analyzers are
// repo-specific: they enforce invariants of this codebase (hot-path
// allocation freedom, deterministic aggregation order, goroutine and mutex
// discipline, seed provenance, the cmfl_* metric schema) rather than
// general Go style.
//
// Run executes per package and may record cross-package facts on
// pass.Facts; the optional Merge phase then runs once over every target's
// facts — in package-path order, with no type information — to reach the
// merge-only conclusions (duplicate metric families, stream-purpose
// collisions, protocol duality, API drift). Both phases count their
// subjects: the repo sites where the analyzer's rule applied and held.
type Analyzer struct {
	Name  string
	Doc   string
	Run   func(*Pass)
	Merge func(*MergePass)
}

// Finding is one reported violation, positioned for editors and CI logs.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Column, f.Analyzer, f.Message)
}

// Result is the machine-readable outcome of a run: every surviving finding
// plus how many were silenced by //cmfl:lint-ignore comments. It is the
// JSON document cmfl-vet emits with -json. Stats is present only when the
// caller asked for it (-stats).
type Result struct {
	Findings   []Finding `json:"findings"`
	Suppressed int       `json:"suppressed"`
	Stats      *RunStats `json:"stats,omitempty"`
}

// RunStats reports where a run spent its time.
type RunStats struct {
	Analyzers []AnalyzerStat `json:"analyzers"`
	LoadMS    int64          `json:"load_ms"`
	WallMS    int64          `json:"wall_ms"`
}

// AnalyzerStat is one analyzer's accumulated wall time across all packages
// (passes run in parallel, so these can sum to more than WallMS), its
// findings before suppression, and its subjects: the sites where its rule
// applied and held. An analyzer with no subjects proved nothing.
type AnalyzerStat struct {
	Name     string `json:"name"`
	MS       int64  `json:"ms"`
	Findings int    `json:"findings"`
	Subjects int    `json:"subjects"`
}

// PackageFacts is the serializable cross-package state one package
// contributes to the merge phase. Each merging analyzer owns exactly one
// field (metricschema → Metrics, seedtaint → Streams, protostate → Proto,
// apicompat → API), which is what makes concurrent passes over the same
// package race-free.
type PackageFacts struct {
	Metrics []MetricFact    `json:"metrics,omitempty"`
	Streams []StreamFact    `json:"streams,omitempty"`
	Proto   []ProtoFact     `json:"proto,omitempty"`
	API     []APISymbolFact `json:"api,omitempty"`
}

// MetricFact is one telemetry metric-family registration site.
type MetricFact struct {
	Family string `json:"family"`
	Kind   string `json:"kind"`
	Help   string `json:"help"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

// StreamFact is one xrand.Derive call site with its constant purpose.
type StreamFact struct {
	Purpose string `json:"purpose"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
}

// ProtoFact is one wire-protocol event site recorded by protostate: a
// frame kind written or read.
// Side is the peer attribution ("client", "server", "both", or "" when
// the function is reachable from neither entry point).
type ProtoFact struct {
	Kind   string `json:"kind"`
	Op     string `json:"op"` // frame-write | frame-read
	Side   string `json:"side,omitempty"`
	Func   string `json:"func"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

// APISymbolFact is one exported-surface entry of a public package.
type APISymbolFact struct {
	Sym    string `json:"sym"`
	Decl   string `json:"decl"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

// Pass is the per-(analyzer, package) invocation context.
type Pass struct {
	Analyzer *Analyzer
	Mod      *Module
	Pkg      *Package

	// Facts collects this package's contribution to the analyzer's merge
	// phase. Shared by all analyzers running over the package; each writes
	// only its own field.
	Facts *PackageFacts

	findings *[]Finding
	subjects int
}

// Fset returns the run's file set.
func (p *Pass) Fset() *token.FileSet { return p.Mod.Fset }

// TypeOf returns the type of an expression in this package, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier in this package.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Uses[id]
}

// InModule reports whether obj is declared inside the module under
// analysis (as opposed to the standard library).
func (p *Pass) InModule(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == p.Mod.Path || hasPathPrefix(path, p.Mod.Path)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Subject counts one site where the analyzer's rule applied and held.
func (p *Pass) Subject() { p.subjects++ }

// proveClean runs check over one site and counts the site as a subject
// when check reported nothing.
func (p *Pass) proveClean(check func()) {
	n := len(*p.findings)
	check()
	if len(*p.findings) == n {
		p.Subject()
	}
}

// SourceFiles yields the package files an analyzer should inspect:
// generated files are skipped wholesale (test files never reach the loader).
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Pkg.Files {
		if isGenerated(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// TargetFacts pairs a package path with the facts its passes produced.
type TargetFacts struct {
	Path  string        `json:"path"`
	Facts *PackageFacts `json:"facts"`
}

// MergePass is the cross-package phase context: every target's facts in
// package-path order, and nothing else — no syntax, no types.
type MergePass struct {
	Analyzer *Analyzer
	Targets  []*TargetFacts
	// RootDir is the module root, for merges that consult committed
	// artifacts (the apicompat baseline).
	RootDir string

	findings *[]Finding
	subjects int
}

// Reportf records a merge finding at an explicit position (facts carry
// file/line/column, not a token.Pos).
func (mp *MergePass) Reportf(file string, line, col int, format string, args ...any) {
	*mp.findings = append(*mp.findings, Finding{
		Analyzer: mp.Analyzer.Name,
		File:     file,
		Line:     line,
		Column:   col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Subject counts one merge-phase site where the rule applied and held.
func (mp *MergePass) Subject() { mp.subjects++ }

// All returns every analyzer of the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		DeterministicOrder,
		FloatSum,
		WallClock,
		MetricSchema,
		ErrCheck,
		FloatEq,
		ConcSafety,
		GoLife,
		SeedTaint,
		ProtoState,
		Exhaustive,
		APICompat,
	}
}

// RunOptions configures RunModule.
type RunOptions struct {
	// Stats attaches a RunStats to the Result.
	Stats bool
	// WriteAPIBaseline regenerates benchmarks/api_baseline.json from this
	// run's apicompat facts after analysis.
	WriteAPIBaseline bool
}

// RunModule is the cmfl-vet entry point: load the packages matching
// patterns (see Load), run the analyzers over them, and report.
func RunModule(dir string, patterns []string, analyzers []*Analyzer, opts RunOptions) (Result, error) {
	start := time.Now()
	targets, mod, err := Load(dir, patterns)
	if err != nil {
		return Result{}, err
	}
	var stats *RunStats
	if opts.Stats {
		stats = &RunStats{LoadMS: int64(time.Since(start) / time.Millisecond)}
	}
	res, tf := analyze(mod, targets, analyzers, stats)
	if opts.WriteAPIBaseline {
		if err := WriteAPIBaseline(mod.RootDir, tf); err != nil {
			return Result{}, err
		}
	}
	if stats != nil {
		stats.WallMS = int64(time.Since(start) / time.Millisecond)
	}
	return res, nil
}

// Run executes the analyzers over the target packages, applies
// //cmfl:lint-ignore suppressions, and returns the surviving findings
// sorted by position. Malformed suppression comments (missing analyzer
// name or justification) are themselves findings: the whole point of the
// marker is an auditable reason.
func Run(mod *Module, targets []*Package, analyzers []*Analyzer) Result {
	res, _ := analyze(mod, targets, analyzers, nil)
	return res
}

// analyze runs every (analyzer, target) pass concurrently, then the merge
// phase sequentially over the per-target facts (returned for the API
// baseline) in package-path order, then suppression. The Module's lazily
// built shared structures (call graph, summaries, suppressions) are
// protected by sync.Once. stats, when non-nil, receives per-analyzer
// times, finding counts and subject counts.
func analyze(mod *Module, targets []*Package, analyzers []*Analyzer, stats *RunStats) (Result, []*TargetFacts) {
	facts := make([]*PackageFacts, len(targets))
	for i := range facts {
		facts[i] = &PackageFacts{}
	}
	buffers := make([][]Finding, len(analyzers)*len(targets))
	durations := make([]int64, len(analyzers))
	subjects := make([]int64, len(analyzers))

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for ai, a := range analyzers {
		for ti, pkg := range targets {
			wg.Add(1)
			go func(ai, ti int, a *Analyzer, pkg *Package) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				start := time.Now()
				var local []Finding
				pass := &Pass{Analyzer: a, Mod: mod, Pkg: pkg, Facts: facts[ti], findings: &local}
				a.Run(pass)
				buffers[ai*len(targets)+ti] = local
				atomic.AddInt64(&durations[ai], int64(time.Since(start)))
				atomic.AddInt64(&subjects[ai], int64(pass.subjects))
			}(ai, ti, a, pkg)
		}
	}
	wg.Wait()

	tf := make([]*TargetFacts, len(targets))
	for i, pkg := range targets {
		tf[i] = &TargetFacts{Path: pkg.Path, Facts: facts[i]}
	}
	ordered := append([]*TargetFacts(nil), tf...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Path < ordered[j].Path })
	var merged []Finding
	for ai, a := range analyzers {
		if a.Merge != nil {
			start := time.Now()
			mp := &MergePass{Analyzer: a, Targets: ordered, RootDir: mod.RootDir, findings: &merged}
			a.Merge(mp)
			durations[ai] += int64(time.Since(start))
			subjects[ai] += int64(mp.subjects)
		}
	}

	var findings []Finding
	for ti := range targets {
		for ai := range analyzers {
			findings = append(findings, buffers[ai*len(targets)+ti]...)
		}
	}
	findings = append(findings, merged...)
	if stats != nil {
		fillAnalyzerStats(stats, analyzers, durations, subjects, buffers, merged)
	}
	return finish(findings, mod.Suppressions(), stats), tf
}

// finish applies suppressions (including reporting malformed markers) and
// sorts.
func finish(findings []Finding, supp *suppressionIndex, stats *RunStats) Result {
	findings = append(findings, supp.malformed...)
	kept := make([]Finding, 0, len(findings))
	suppressed := 0
	for _, f := range findings {
		if supp.matches(f) {
			suppressed++
			continue
		}
		kept = append(kept, f)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Message < b.Message
	})
	return Result{Findings: kept, Suppressed: suppressed, Stats: stats}
}

// fillAnalyzerStats aggregates per-analyzer durations, finding counts and
// subject counts.
func fillAnalyzerStats(stats *RunStats, analyzers []*Analyzer, durations, subjects []int64, buffers [][]Finding, merged []Finding) {
	mergeCounts := make(map[string]int)
	for _, f := range merged {
		mergeCounts[f.Analyzer]++
	}
	nTargets := 0
	if len(analyzers) > 0 {
		nTargets = len(buffers) / len(analyzers)
	}
	for ai, a := range analyzers {
		count := mergeCounts[a.Name]
		for ti := 0; ti < nTargets; ti++ {
			count += len(buffers[ai*nTargets+ti])
		}
		stats.Analyzers = append(stats.Analyzers, AnalyzerStat{
			Name:     a.Name,
			MS:       durations[ai] / int64(time.Millisecond),
			Findings: count,
			Subjects: int(subjects[ai]),
		})
	}
}

func hasPathPrefix(path, prefix string) bool {
	return len(path) > len(prefix) && path[:len(prefix)] == prefix && path[len(prefix)] == '/'
}
