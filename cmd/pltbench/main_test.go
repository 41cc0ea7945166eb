package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAllExperimentsGolden pins every experiment's numbers at once: the
// JSON -experiment all prints on a two-site corpus, byte for byte. The
// simulation is deterministic, so any diff is a behaviour change —
// regenerate with `go test ./cmd/pltbench/ -run Golden -update` and review
// the diff.
func TestAllExperimentsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "all", "-sites", "2", "-json", "-parallel", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-experiment all diverged from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, stdout.String(), want)
	}
}

// TestRunHeadlineDeterministic: the headline experiment on a small corpus
// prints its table, and the same bytes again on a second run.
func TestRunHeadlineDeterministic(t *testing.T) {
	args := []string{"-experiment", "headline", "-sites", "2", "-scale", "0.3", "-seed", "5", "-parallel", "1"}
	var first, second, stderr bytes.Buffer
	if code := run(args, &first, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if code := run(args, &second, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(first.String(), "=== headline ===\n") {
		t.Fatalf("unexpected output:\n%s", first.String())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two runs printed different bytes:\n%s\n---\n%s", first.String(), second.String())
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig9"},
		{"-treatment", "magic"},
		{"-cache-policy", "lru"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}
