package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusFiles reads every file under dir, keyed by its path below dir.
func corpusFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRunIsDeterministic: one seed writes the same files with the same bytes
// and prints the same report, wherever it writes them.
func TestRunIsDeterministic(t *testing.T) {
	var reports []string
	var trees []map[string][]byte
	for i := 0; i < 2; i++ {
		dir := filepath.Join(t.TempDir(), "corpus")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-out", dir, "-sites", "2", "-seed", "5", "-scale", "0.3"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		reports = append(reports, strings.ReplaceAll(stdout.String(), dir, "DIR"))
		trees = append(trees, corpusFiles(t, dir))
	}
	if reports[0] != reports[1] {
		t.Errorf("reports differ:\n%s\n%s", reports[0], reports[1])
	}
	if !strings.Contains(reports[0], "\nwrote 2 sites (") {
		t.Errorf("report does not count 2 sites:\n%s", reports[0])
	}
	for _, want := range []string{"site000.example/index.html", "site000.example/MANIFEST.txt", "site001.example/index.html"} {
		if _, ok := trees[0][filepath.FromSlash(want)]; !ok {
			t.Errorf("%s not written", want)
		}
	}
	if len(trees[0]) != len(trees[1]) {
		t.Fatalf("%d files, then %d", len(trees[0]), len(trees[1]))
	}
	for name, body := range trees[0] {
		if !bytes.Equal(body, trees[1][name]) {
			t.Errorf("%s differs between two runs of one seed", name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-policy", "x"}, {"-sites", "many"}, {"-scale"}} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-out", filepath.Join(dir, "corpus")), &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%q: stdout %q, stderr %q; want the usage on stderr only", args, stdout.String(), stderr.String())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%q: wrote %d entries on a bad flag", args, len(entries))
		}
	}
}

// TestRunReportsWriteErrors: an output path that cannot be a directory is
// an error (exit 1), not a panic or a partial success.
func TestRunReportsWriteErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", file, "-sites", "1", "-scale", "0.3"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(stderr.String(), "webgen: site000.example: ") {
		t.Errorf("stderr = %q", stderr.String())
	}
}
