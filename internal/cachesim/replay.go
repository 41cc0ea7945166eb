package cachesim

import (
	"strconv"

	"cachecatalyst/internal/cachestore"
)

// Result summarizes one replay of a trace.
type Result struct {
	// Requests and Hits count trace requests and cache hits.
	Requests, Hits int64
	// BytesRequested and BytesHit are the corresponding byte totals.
	BytesRequested, BytesHit int64
	// Counters is the underlying store's counter snapshot; its
	// Evictions field shows how hard the budget pressed.
	Counters cachestore.Counters
}

// OHR is the object hit ratio: hits per request.
func (r Result) OHR() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Requests)
}

// BHR is the byte hit ratio: bytes served from cache per byte requested.
func (r Result) BHR() float64 {
	if r.BytesRequested == 0 {
		return 0
	}
	return float64(r.BytesHit) / float64(r.BytesRequested)
}

// Replay runs the trace through a real cachestore.Store under the given
// byte budget — the same code path production consumers use, not a
// reimplementation, so simulator numbers reflect the store's actual
// eviction order. Every miss inserts the object.
func Replay(trace []Request, budget int64) Result {
	store := cachestore.New[int64](cachestore.Options[int64]{
		MaxBytes: budget,
		SizeOf:   func(_ string, size int64) int64 { return size },
	})
	var res Result
	for _, req := range trace {
		key := strconv.FormatUint(req.ID, 10)
		res.Requests++
		res.BytesRequested += req.Size
		if _, ok := store.Get(key); ok {
			res.Hits++
			res.BytesHit += req.Size
		} else {
			store.Put(key, req.Size)
		}
	}
	res.Counters = store.Counters()
	return res
}
