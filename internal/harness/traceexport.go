package harness

import (
	"context"
	"sync"

	"cachecatalyst/internal/cachesim"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/webgen"
)

// ExportTrace drives catalyst worlds over the configured corpus and
// revisit schedule (revisit, both pages at every visit, at the first grid
// condition) and returns every Service-Worker subresource access as a
// webcachesim-format trace (see internal/cachesim). One recorder spans all
// sites, so the trace mixes origins the way a shared cache would see them —
// cold loads contribute the one-hit-wonder tail, revisits the popular core,
// and both pages of each site the intra-site reuse. Sites run concurrently
// (run), each logging its own accesses, and the logs are recorded in site
// order, so the trace does not depend on Parallelism.
//
// The export exists to close the measurement loop: cmd/cachesim replays
// the returned trace through any cachestore policy and scores it against
// the offline optimal bound, so policy choices for the real stores are
// grounded in the workload the emulated system actually generates.
func ExportTrace(cfg Config) ([]cachesim.Request, error) {
	if len(cfg.Grid) > 1 {
		cfg.Grid = cfg.Grid[:1]
	}
	logs, err := run(context.Background(), cfg, []Scheme{SchemeCatalyst}, func(w *World, cond netsim.Conditions) (*accessLog, error) {
		log := new(accessLog)
		w.Browser.WithAccessRecorder(log)
		_, err := w.revisit(cond, cfg.Delays, webgen.PagePath, webgen.SecondaryPagePath)
		return log, err
	})
	if err != nil {
		return nil, err
	}
	rec := cachesim.NewRecorder()
	for _, log := range logs[0][0] {
		for _, a := range log.accesses {
			rec.Record(a.key, a.size)
		}
	}
	return rec.Trace(), nil
}

// accessLog is one site's sw.AccessRecorder: its accesses, in order.
type accessLog struct {
	mu       sync.Mutex
	accesses []access
}

type access struct {
	key  string
	size int64
}

// Record implements sw.AccessRecorder.
func (l *accessLog) Record(key string, size int64) {
	l.mu.Lock()
	l.accesses = append(l.accesses, access{key, size})
	l.mu.Unlock()
}
