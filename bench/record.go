package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runRecord is one invocation of the benchmark with everything needed to
// tell a bad run from a changed program: what ran, on what, for how long,
// how busy the box was.
type runRecord struct {
	Commit    string    `json:"commit"`
	Seed      int64     `json:"seed"`
	NProc     int       `json:"nproc"`
	GoVersion string    `json:"go_version"`
	Started   time.Time `json:"started"`
	// Phases are the lengths every workload was run with.
	Phases struct {
		MeasuredS    float64 `json:"measured_s"`
		WindowS      float64 `json:"window_s"`
		SetupRepeats int     `json:"setup_repeats"`
		Connections  int     `json:"connections"`
	} `json:"phases"`
	Results []*result `json:"results"`
}

func newRunRecord(seed int64, seconds float64) *runRecord {
	r := &runRecord{
		Commit:    gitCommit(),
		Seed:      seed,
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Started:   time.Now().UTC(),
	}
	r.Phases.MeasuredS = seconds
	r.Phases.WindowS = 1
	r.Phases.SetupRepeats = setupRepeats
	r.Phases.Connections = connections
	return r
}

// gitCommit names the checkout; the driver's checkouts are not git
// repositories, which is recorded as such rather than failing the run.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
		commit += "+dirty"
	}
	return commit
}

// readRuns loads a run file: a JSON array of run records.
func readRuns(path string) ([]*runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []*runRecord
	if err := json.Unmarshal(b, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// appendRun adds a run to a run file, creating it when absent. A set of
// runs for -compare is built by passing the same -json file repeatedly.
func appendRun(path string, rec *runRecord) error {
	runs, err := readRuns(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	runs = append(runs, rec)
	b, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
