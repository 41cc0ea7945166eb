package cachestore

// newSharded is New with n shards, rounded up to a power of two, instead
// of the constant: the one way a test reaches another shard count.
func newSharded[V any](n int, opts Options[V]) *Store[V] {
	s := New(opts)
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s.shards = make([]shard[V], pow)
	s.mask = uint64(pow - 1)
	return s
}
