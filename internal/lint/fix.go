package lint

import (
	"fmt"
	"go/format"
	"os"
	"sort"
)

// The fix engine turns findings' byte-offset TextEdits into applied source
// rewrites. Three properties make `cmfl-vet -fix` safe to run blind:
//
//   - edits are validated before any write: out-of-bounds or overlapping
//     edits abort the whole run with no file touched;
//   - every rewritten file goes through go/format, so a fix can never
//     introduce a gofmt diff;
//   - after applying, the suite re-runs and applies again, up to
//     maxFixIterations, until a pass produces no fixable findings — the
//     convergence proof. A fixed point that still carries fixable findings
//     after the iteration cap is reported as an error instead of looping.
//
// Analyzers only attach edits they can prove semantics-preserving given
// the package's declared hooks (see wallclock's now()/sleep() gating), so
// "fixable" is deliberately a small subset of "reported".

// maxFixIterations bounds the apply/re-run loop. Two passes suffice for
// every analyzer today (fixes do not create new fixable sites); the
// headroom is for future rewrites that cascade.
const maxFixIterations = 5

// FixSummary reports what a RunFix pass did.
type FixSummary struct {
	// Iterations is the number of apply+re-run cycles, 0 when the first
	// run was already free of fixable findings.
	Iterations int
	// FilesChanged lists every file rewritten, deduplicated across
	// iterations, in path order.
	FilesChanged []string
}

// PreviewFixes renders the post-fix contents of every file with fixable
// findings, keyed by file path, without writing anything. The returned
// bytes are gofmt-formatted. An invalid edit set (overlap, out of bounds,
// unreadable file) fails the whole preview.
func PreviewFixes(findings []Finding) (map[string][]byte, error) {
	perFile := make(map[string][]TextEdit)
	for _, f := range findings {
		perFile[f.File] = append(perFile[f.File], f.Edits...)
	}
	out := make(map[string][]byte)
	for path, edits := range perFile {
		if len(edits) == 0 {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: fix %s: %w", path, err)
		}
		patched, err := applyEdits(src, edits)
		if err != nil {
			return nil, fmt.Errorf("lint: fix %s: %w", path, err)
		}
		formatted, err := format.Source(patched)
		if err != nil {
			return nil, fmt.Errorf("lint: fix %s: result does not parse: %w", path, err)
		}
		out[path] = formatted
	}
	return out, nil
}

// applyEdits splices edits into src, rejecting overlap and out-of-bounds
// offsets before touching anything.
func applyEdits(src []byte, edits []TextEdit) ([]byte, error) {
	sorted := append([]TextEdit(nil), edits...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	prevEnd := 0
	for _, e := range sorted {
		if e.Start < 0 || e.End < e.Start || e.End > len(src) {
			return nil, fmt.Errorf("edit [%d,%d) out of bounds (len %d)", e.Start, e.End, len(src))
		}
		if e.Start < prevEnd {
			return nil, fmt.Errorf("edit [%d,%d) overlaps a preceding edit ending at %d", e.Start, e.End, prevEnd)
		}
		prevEnd = e.End
	}
	var out []byte
	last := 0
	for _, e := range sorted {
		out = append(out, src[last:e.Start]...)
		out = append(out, e.NewText...)
		last = e.End
	}
	return append(out, src[last:]...), nil
}

// WriteFixes writes previewed contents back to disk.
func WriteFixes(files map[string][]byte) error {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := os.WriteFile(p, files[p], 0o644); err != nil {
			return fmt.Errorf("lint: fix %s: %w", p, err)
		}
	}
	return nil
}

// RunFix runs the suite, applies every fixable finding, and repeats until
// a run reports none — the final clean-of-fixables Result is returned
// together with what changed.
func RunFix(dir string, patterns []string, analyzers []*Analyzer, opts RunOptions) (Result, FixSummary, error) {
	var sum FixSummary
	changed := make(map[string]bool)
	for {
		res, err := RunModule(dir, patterns, analyzers, opts)
		if err != nil {
			return Result{}, sum, err
		}
		files, err := PreviewFixes(res.Findings)
		if err != nil {
			return Result{}, sum, err
		}
		if len(files) == 0 {
			for p := range changed {
				sum.FilesChanged = append(sum.FilesChanged, p)
			}
			sort.Strings(sum.FilesChanged)
			return res, sum, nil
		}
		if sum.Iterations == maxFixIterations {
			return Result{}, sum, fmt.Errorf("lint: fixes did not converge after %d iterations; %d file(s) still carry fixable findings", maxFixIterations, len(files))
		}
		if err := WriteFixes(files); err != nil {
			return Result{}, sum, err
		}
		for p := range files {
			changed[p] = true
		}
		sum.Iterations++
	}
}
