package main

import (
	"bytes"
	"strings"
	"testing"

	"cachecatalyst/internal/cachesim"
)

func TestParseBudget(t *testing.T) {
	// Two objects of 100 and 300 bytes: 400 unique bytes, however often
	// each is requested.
	trace := []cachesim.Request{{Time: 0, ID: 1, Size: 100}, {Time: 1, ID: 2, Size: 300}, {Time: 2, ID: 1, Size: 100}}
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"1234", 1234},
		{" 64KiB ", 64 << 10},
		{"16MiB", 16 << 20},
		{"2GiB", 2 << 30},
		{"50%", 200},
		{"0.1%", 1}, // rounds down to zero bytes, floored at one
	} {
		got, err := parseBudget(c.in, trace)
		if err != nil || got != c.want {
			t.Errorf("parseBudget(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "0", "-5", "12TiB", "KiB", "0%", "-1%", "x%"} {
		if got, err := parseBudget(bad, trace); err == nil {
			t.Errorf("parseBudget(%q) = %d, want an error", bad, got)
		}
	}
}

// TestRunCheckOnHarnessTrace is make cachesim's first line: the committed
// harness trace replays clean and prints the GDSF row beside the bound.
func TestRunCheckOnHarnessTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", "../../internal/cachesim/testdata/harness_quick.trace", "-budget", "40%", "-check"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, row := range []string{
		"gdsf             0.7541    92.1%   0.6070    87.9%        178\n",
		"foo-bound        0.8188   100.0%   0.6909   100.0%\n",
		"check: ok\n",
	} {
		if !strings.Contains(out, row) {
			t.Errorf("output lacks %q:\n%s", row, out)
		}
	}
}

// TestRunCheckOnSyntheticTrace is make cachesim's second line. The harness
// trace evicts 178 times; this one evicts 18 275, so it pins the store's
// eviction order under steady pressure: any change to which entry goes
// first moves one of its columns.
func TestRunCheckOnSyntheticTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-synth", "-requests", "60000", "-objects", "4000", "-budget", "2%", "-check"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, row := range []string{
		"gdsf             0.6889    88.4%   0.3244    60.2%      18275\n",
		"foo-bound        0.7793   100.0%   0.5390   100.0%\n",
		"check: ok\n",
	} {
		if !strings.Contains(out, row) {
			t.Errorf("output lacks %q:\n%s", row, out)
		}
	}
}

func TestRunRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"no input", nil, 1},
		{"both inputs", []string{"-synth", "-trace", "x.trace"}, 1},
		{"missing file", []string{"-trace", "no-such.trace"}, 1},
		{"bad budget", []string{"-synth", "-requests", "10", "-budget", "lots"}, 1},
		{"retired flag", []string{"-synth", "-policies", "lru,gdsf"}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Error("refused without saying why")
			}
		})
	}
}
