package catalyst

import "net/http"

// ProbeEvictions reports how many entries h, a Middleware, has evicted from
// its probe cache.
func ProbeEvictions(h http.Handler) int64 {
	return h.(*middleware).def.probes.Counters().Evictions
}
