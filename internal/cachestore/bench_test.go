package cachestore

import (
	"fmt"
	"strings"
	"testing"
)

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/static/assets/chunk-%04d.js", i)
	}
	return keys
}

// BenchmarkStoreMixed is the headline concurrency benchmark: a read-heavy
// mixed workload (90% Get, 10% Put) against a bounded store, with the shard
// count as the contention knob.
func BenchmarkStoreMixed(b *testing.B) {
	val := strings.Repeat("v", 512)
	keys := benchKeys(1024)
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New[string](Options[string]{
				Shards:   shards,
				MaxBytes: 512 * 768, // forces steady eviction at ~75% of the key space
				SizeOf:   func(_ string, v string) int64 { return int64(len(v)) },
			})
			for _, k := range keys {
				s.Put(k, val)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					k := keys[i%len(keys)]
					if i%10 == 0 {
						s.Put(k, val)
					} else {
						s.Get(k)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreGetHit measures the uncontended promote-on-hit fast path.
func BenchmarkStoreGetHit(b *testing.B) {
	s := New[string](Options[string]{})
	s.Put("k", "v")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Get("k")
		}
	})
}
