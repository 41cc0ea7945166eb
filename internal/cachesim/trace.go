// Package cachesim replays request traces through internal/cachestore and
// compares the store's hit ratios against an offline upper bound, in the style of the webcachesim simulator that accompanies
// the AdaptSize/LRB line of caching papers.
//
// The trace format is webcachesim's: one request per line, three
// space-separated integer fields
//
//	time id size
//
// where time is any non-decreasing timestamp (the simulator only uses
// order), id names the object, and size is its byte size. Lines that are
// blank or start with '#' are skipped, so traces can carry provenance
// comments.
package cachesim

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Request is one line of a trace: object id requested at time, size bytes.
type Request struct {
	Time int64
	ID   uint64
	Size int64
}

// ParseTrace reads a webcachesim-format trace. Malformed lines are
// reported with their line number rather than silently dropped — a
// truncated trace would otherwise bias every ratio computed from it.
func ParseTrace(r io.Reader) ([]Request, error) {
	var reqs []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("cachesim: line %d: want 3 fields (time id size), got %d", line, len(fields))
		}
		t, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cachesim: line %d: bad time %q: %v", line, fields[0], err)
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cachesim: line %d: bad id %q: %v", line, fields[1], err)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cachesim: line %d: bad size %q: %v", line, fields[2], err)
		}
		if size <= 0 {
			return nil, fmt.Errorf("cachesim: line %d: size must be positive, got %d", line, size)
		}
		reqs = append(reqs, Request{Time: t, ID: id, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cachesim: %v", err)
	}
	return reqs, nil
}

// WriteTrace writes reqs in the webcachesim format ParseTrace reads.
func WriteTrace(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	for _, r := range reqs {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", r.Time, r.ID, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Recorder accumulates cache accesses into a trace. It exists so harness
// runs can export what the emulated browsers actually requested: the
// Service Worker layer calls Record for every subresource access, and the
// result replays through cmd/cachesim. Timestamps are
// the access sequence number — the simulator only needs order, and the
// harness's virtual clock rarely advances between subresource fetches of
// one page load.
//
// Recorder is safe for concurrent use; harness worlds fetch subresources
// from many emulated clients at once.
type Recorder struct {
	mu   sync.Mutex
	ids  map[string]uint64
	reqs []Request
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ids: make(map[string]uint64)}
}

// Record appends one access. The string key (a URL path) is interned to a
// stable numeric id; size is the object's byte size.
func (r *Recorder) Record(key string, size int64) {
	if size <= 0 {
		size = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.ids[key]
	if !ok {
		id = uint64(len(r.ids)) + 1
		r.ids[key] = id
	}
	r.reqs = append(r.reqs, Request{Time: int64(len(r.reqs)), ID: id, Size: size})
}

// Trace returns a copy of the recorded accesses, in arrival order.
func (r *Recorder) Trace() []Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Request, len(r.reqs))
	copy(out, r.reqs)
	return out
}

// Len returns the number of recorded accesses.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.reqs)
}
