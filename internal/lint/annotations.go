package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Annotation and suppression conventions. Both are ordinary //-comments so
// they survive gofmt and need no build-system support:
//
//	//cmfl:hotpath
//	    On a function's doc comment: the body (and module callees one
//	    level deep) must be allocation-free. Checked by hotpathalloc.
//
//	//cmfl:deterministic
//	    On a function's doc comment: the body must not iterate maps —
//	    float accumulation order there is part of the reproducibility
//	    contract. Checked by deterministicorder. (Wall-clock reads and the
//	    global math/rand source are banned package-wide in the engine
//	    packages, annotated or not, by wallclock and seedtaint.)
//
//	//cmfl:lint-ignore <analyzer> <reason>
//	    Silences <analyzer>'s findings on the comment's line and the line
//	    below it. The reason is mandatory; a marker without one is itself
//	    reported.
//
//	//cmfl:api-change <reason>
//	    On its own line in a changed Go file: the migration note of an
//	    intentional change to the API an importer can reach (the root
//	    package and the module types its aliases name), committed with the
//	    regenerated apicompat baseline (CI refuses a baseline diff without
//	    one). It waives nothing; the reason is mandatory. Remove it in a
//	    later change.
//
//	//cmfl:order-pinned <reason>
//	    On (or directly above) an order-sensitive float accumulation, or on
//	    any of its enclosing loops: asserts the accumulation order is part
//	    of the algorithm's definition (e.g. local SGD folds minibatch
//	    losses in the seeded schedule's order). floatsum honors the marker
//	    only when it can prove every enclosing loop drains in deterministic
//	    order; a reasonless marker, one on a nondeterministic drain, or one
//	    that pins no reduction is itself a finding.

const (
	markerHotPath       = "cmfl:hotpath"
	markerDeterministic = "cmfl:deterministic"
	markerIgnore        = "cmfl:lint-ignore"
	markerAPIChange     = "cmfl:api-change"
	markerOrderPinned   = "cmfl:order-pinned"
)

// funcHasMarker reports whether a function declaration's doc comment
// carries the given //cmfl: directive.
func funcHasMarker(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// generatedRe is the Go convention for generated files
// (https://go.dev/s/generatedcode).
var generatedRe = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// isGenerated reports whether the file carries the standard generated-code
// marker; such files are never analyzed.
func isGenerated(f *ast.File) bool {
	for _, group := range f.Comments {
		if group.End() >= f.Package {
			break
		}
		for _, c := range group.List {
			if generatedRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// suppressionIndex maps (file, line, analyzer) to lint-ignore markers. It
// also carries the malformed-marker findings discovered while scanning.
type suppressionIndex struct {
	byKey     map[suppressionKey]bool
	malformed []Finding
}

type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

func newSuppressionIndex() *suppressionIndex {
	return &suppressionIndex{byKey: make(map[suppressionKey]bool)}
}

// addFile scans a file's comments for lint-ignore markers. Malformed
// markers (no analyzer, no reason) become findings under the
// pseudo-analyzer name "lint", carried on the index.
func (s *suppressionIndex) addFile(fset *token.FileSet, f *ast.File) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, markerIgnore)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				s.malformed = append(s.malformed, Finding{
					Analyzer: "lint",
					File:     pos.Filename,
					Line:     pos.Line,
					Column:   pos.Column,
					Message:  "malformed //cmfl:lint-ignore: want `//cmfl:lint-ignore <analyzer> <reason>`",
				})
				continue
			}
			s.byKey[suppressionKey{pos.Filename, pos.Line, fields[0]}] = true
		}
	}
}

// matches reports whether a finding is silenced: a marker for its analyzer
// sits on the same line or the line directly above.
func (s *suppressionIndex) matches(f Finding) bool {
	return s.byKey[suppressionKey{f.File, f.Line, f.Analyzer}] ||
		s.byKey[suppressionKey{f.File, f.Line - 1, f.Analyzer}]
}
