package main

import (
	"bytes"
	"strings"
	"testing"
)

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
