package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind (binaries, temp content,
// traces). It sits under the benchmark's own directory and is ignored by
// git, so a run reads and writes only inside its checkout.
const outDir = "bench/out"

// programs are the repo commands the benchmark measures, built once per
// checkout into outDir/bin.
var programs = []string{"catalystd", "pltbench", "schemes"}

func binPath(name string) string { return filepath.Join(outDir, "bin", name) }

// buildPrograms compiles the programs under test from the checkout's
// source. `go build` is a no-op when the binary is current, so every run
// calls it and a PR's change is always what is measured.
func buildPrograms() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	args := []string{"build", "-o", filepath.Join(outDir, "bin") + string(os.PathSeparator)}
	for _, p := range programs {
		args = append(args, "./cmd/"+p)
	}
	if err := os.MkdirAll(filepath.Join(outDir, "bin"), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports; reading it
// properly needs sysconf(3), which needs cgo.
const clockTicksPerSecond = 100

// parseProcStat extracts user+system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicksPerSecond, nil
}

// parseVmHWM extracts the peak resident set size, in KiB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// procCPU reads a live process's consumed CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// procPeakRSSKiB reads a live process's peak resident set size.
func procPeakRSSKiB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// loadAverage1 reads the 1-minute load average.
func loadAverage1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// parseCPUTotals extracts total and idle jiffies from the first line of
// /proc/stat ("cpu  user nice system idle iowait …").
func parseCPUTotals(stat string) (total, idle uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += n
		if i == 3 || i == 4 { // idle, iowait
			idle += n
		}
	}
	return total, idle, nil
}

// boxBusy is the share of the box's CPUs that were busy over a quarter of a
// second: what a run is about to compete with. The load average cannot say
// that between back-to-back runs, because it still remembers the previous
// one.
func boxBusy() float64 {
	read := func() (uint64, uint64) {
		b, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0
		}
		t, i, _ := parseCPUTotals(string(b))
		return t, i
	}
	t0, i0 := read()
	time.Sleep(250 * time.Millisecond)
	t1, i1 := read()
	if t1 <= t0 {
		return 0
	}
	return 1 - float64(i1-i0)/float64(t1-t0)
}

// snapshot is the telemetry registry as resilience.Serve flushes it to
// stderr on drain.
type snapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
		SumNs int64 `json:"sumNs"`
	} `json:"histograms"`
}

// parseDrainSnapshot finds the JSON object in a daemon's stderr. Log lines
// come before and possibly after it; the object starts at a line that is
// exactly "{" because the flush is indented.
func parseDrainSnapshot(stderr []byte) (snapshot, error) {
	var snap snapshot
	start := -1
	if bytes.HasPrefix(stderr, []byte("{\n")) {
		start = 0
	} else if i := bytes.Index(stderr, []byte("\n{\n")); i >= 0 {
		start = i + 1
	}
	if start < 0 {
		return snap, errors.New("no telemetry snapshot on the daemon's stderr")
	}
	if err := json.NewDecoder(bytes.NewReader(stderr[start:])).Decode(&snap); err != nil {
		return snap, fmt.Errorf("telemetry snapshot: %w", err)
	}
	return snap, nil
}

// daemon is one catalystd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed when Wait returned
	err    error

	stopOnce sync.Once
	snap     snapshot
	snapErr  error
}

// live tracks the child processes that are running, so that a signal can
// stop them: a benchmark that is interrupted must not leave children behind.
var live = struct {
	mu    sync.Mutex
	procs map[*os.Process]bool
}{procs: map[*os.Process]bool{}}

func trackChild(p *os.Process, running bool) {
	live.mu.Lock()
	defer live.mu.Unlock()
	if running {
		live.procs[p] = true
	} else {
		delete(live.procs, p)
	}
}

// stopAllOnSignal kills every live child and removes the run's scratch
// space when the benchmark itself is told to stop.
func stopAllOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		live.mu.Lock()
		for p := range live.procs {
			_ = p.Kill() // exiting anyway; nothing to do about a failure
		}
		live.mu.Unlock()
		os.RemoveAll(filepath.Join(outDir, "tmp"))
		os.Exit(130)
	}()
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches catalystd with one mode-selecting flag pair plus
// -addr, and nothing else: every other knob keeps the default a PR may
// change.
func startDaemon(addr string, modeArgs ...string) (*daemon, error) {
	d := &daemon{addr: addr, done: make(chan struct{})}
	d.cmd = exec.Command(binPath("catalystd"), append(modeArgs, "-addr", addr)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	trackChild(d.cmd.Process, true)
	go func() {
		d.err = d.cmd.Wait()
		trackChild(d.cmd.Process, false)
		close(d.done)
	}()
	return d, nil
}

// awaitListening blocks until the daemon accepts connections.
func (d *daemon) awaitListening(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", d.addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("catalystd exited before listening: %v\n%s", d.err, d.stderr.Bytes())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("catalystd not listening on %s after %v", d.addr, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop SIGTERMs the daemon, waits for it to exit, and parses the drain
// snapshot. It is safe to call more than once; a daemon that ignores the
// signal is killed so a run never leaves an orphan.
func (d *daemon) stop() (snapshot, error) {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is reported by Wait below
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			d.snapErr = errors.New("catalystd ignored SIGTERM for 15s and was killed")
			return
		}
		if d.err != nil {
			d.snapErr = fmt.Errorf("catalystd exit: %w\n%s", d.err, d.stderr.Bytes())
			return
		}
		d.snap, d.snapErr = parseDrainSnapshot(d.stderr.Bytes())
	})
	return d.snap, d.snapErr
}

// childUsage is what an exited child consumed.
type childUsage struct {
	CPU        time.Duration
	PeakRSSKiB int64
	Wall       time.Duration
}

// runToCompletion runs a command and returns its stdout and resource use.
func runToCompletion(name string, args ...string) ([]byte, childUsage, error) {
	cmd := exec.Command(name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Start()
	if err == nil {
		trackChild(cmd.Process, true)
		err = cmd.Wait()
		trackChild(cmd.Process, false)
	}
	u := childUsage{Wall: time.Since(start)}
	if cmd.ProcessState != nil {
		u.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.PeakRSSKiB = int64(ru.Maxrss)
		}
	}
	if err != nil {
		return nil, u, fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes(), u, nil
}

// selfCPU is the benchmark process's own consumed CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}
