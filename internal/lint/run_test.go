package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeRunTestModule lays out a two-package throwaway module where b
// imports a. a carries one errcheck violation and one suppressed one; b
// imports encoding/base32, which no package of this module imports, so the
// standard library's export data is resolved per run, not borrowed from
// the enclosing module.
func writeRunTestModule(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	writeTestFile(t, dir, "go.mod", "module runtest\n\ngo 1.24\n")
	writeTestFile(t, dir, "a/a.go", `package a

import "os"

func Touch(path string) {
	_ = os.Remove(path)
}

func Quiet(path string) {
	//cmfl:lint-ignore errcheck best-effort cleanup in fixture
	_ = os.Remove(path)
}
`)
	writeTestFile(t, dir, "b/b.go", `package b

import (
	"encoding/base32"

	"runtest/a"
)

func Use() {
	a.Touch(base32.StdEncoding.EncodeToString([]byte("x")))
}
`)
	return dir
}

func writeTestFile(t testing.TB, dir, rel, content string) {
	t.Helper()
	full := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunModule drives the cmfl-vet entry point over a throwaway module:
// findings and suppressions are reported, a rerun over the unchanged tree
// repeats them, a violation added between runs shows up on the next one,
// and an import the go command cannot resolve is a load error naming it.
func TestRunModule(t *testing.T) {
	dir := writeRunTestModule(t)
	run := func() (Result, error) {
		return RunModule(dir, []string{"./..."}, []*Analyzer{ErrCheck}, RunOptions{Stats: true})
	}

	first, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Findings) != 1 || first.Suppressed != 1 {
		t.Fatalf("first run = %d finding(s), %d suppressed, want 1 and 1: %v", len(first.Findings), first.Suppressed, first.Findings)
	}
	if first.Stats == nil || len(first.Stats.Analyzers) != 1 || first.Stats.Analyzers[0].Findings != 2 {
		t.Errorf("stats = %+v, want one analyzer with 2 findings before suppression", first.Stats)
	}

	again, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Findings, again.Findings) || first.Suppressed != again.Suppressed {
		t.Errorf("rerun over an unchanged tree diverged:\n  first: %v (%d suppressed)\n  again: %v (%d suppressed)",
			first.Findings, first.Suppressed, again.Findings, again.Suppressed)
	}

	a := filepath.Join(dir, "a", "a.go")
	src, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	writeTestFile(t, dir, "a/a.go", string(src)+"\nfunc Touch2(path string) {\n\t_ = os.Remove(path)\n}\n")
	after, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Findings) != 2 || after.Suppressed != 1 {
		t.Errorf("after adding a violation = %d finding(s), %d suppressed, want 2 and 1: %v", len(after.Findings), after.Suppressed, after.Findings)
	}

	writeTestFile(t, dir, "c/c.go", "package c\n\nimport _ \"nosuch/pkg\"\n")
	if _, err := run(); err == nil || !strings.Contains(err.Error(), "nosuch/pkg") {
		t.Errorf("unresolvable import: err = %v, want a load error naming nosuch/pkg", err)
	}
}

// BenchmarkCmflVetCold measures one full load + analyze of the module.
func BenchmarkCmflVetCold(b *testing.B) {
	root := filepath.Join("..", "..")
	for i := 0; i < b.N; i++ {
		if _, err := RunModule(root, []string{"./..."}, All(), RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
