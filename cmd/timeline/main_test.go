package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunPrintsGolden: with no flags the command prints the three Figure 1
// waterfalls recorded in testdata/timeline.golden, byte for byte. The
// simulation is deterministic, so any diff is a behaviour change of the
// browser, the server or the origin adapter between them.
func TestRunPrintsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "timeline.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("output differs from timeline.golden:\n%s", stdout.String())
	}
}

// TestRunWritesHARPanels: -har writes one HAR file per panel into the
// directory, each a HAR log with the panel's fetches, and says so.
func TestRunWritesHARPanels(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "har")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-har", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, panel := range []string{"fig1a", "fig1b", "fig1c"} {
		path := filepath.Join(dir, panel+".har")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var har struct {
			Log struct {
				Entries []json.RawMessage `json:"entries"`
			} `json:"log"`
		}
		if err := json.Unmarshal(data, &har); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(har.Log.Entries) == 0 {
			t.Errorf("%s: no entries", path)
		}
		if !strings.Contains(stdout.String(), "(wrote "+path+")") {
			t.Errorf("stdout does not mention %s", path)
		}
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sites", "3"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed on a bad flag: %q", stdout.String())
	}
}
