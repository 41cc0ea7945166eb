package cachestore

import (
	"fmt"
	"sync"
)

// flightCall is one in-flight load; waiters block on wg and then read val
// and err, which the executor writes before wg.Done.
type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// Do runs fn for key with singleflight semantics: while one execution is in
// flight, concurrent callers for the same key wait and share its result
// instead of running their own. shared reports whether the result came from
// another caller's execution. Do itself never reads or writes the store —
// callers compose it with Get/Peek/Put when the result should be cached.
func (s *Store[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	s.flight.mu.Lock()
	if c, ok := s.flight.calls[key]; ok {
		s.flight.mu.Unlock()
		c.wg.Wait()
		s.loadsShared.Add(1)
		return c.val, true, c.err
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	s.flight.calls[key] = c
	s.flight.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			// Fail the waiters before re-panicking, so a loader panic
			// can never strand goroutines on wg.Wait.
			c.err = fmt.Errorf("cachestore: load for %q panicked: %v", key, r)
			s.flight.mu.Lock()
			delete(s.flight.calls, key)
			s.flight.mu.Unlock()
			c.wg.Done()
			panic(r)
		}
		s.flight.mu.Lock()
		delete(s.flight.calls, key)
		s.flight.mu.Unlock()
		c.wg.Done()
	}()
	s.loads.Add(1)
	c.val, c.err = fn()
	return c.val, false, c.err
}
