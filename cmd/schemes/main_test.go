package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunPrintsGolden: with no flags the command prints the committed
// scheme-matrix golden table byte for byte.
func TestRunPrintsGolden(t *testing.T) {
	want, err := os.ReadFile("../../internal/harness/testdata/scheme_matrix.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("output differs from scheme_matrix.golden:\n%s", stdout.String())
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cache-policy", "lru"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed on a bad flag: %q", stdout.String())
	}
}
