package server

import "net/http"

// NewTuned is New with its pages' maps resolved over mapConcurrency workers
// and, when maxMapBytes > 0, encoded within that many bytes (MapTuning): the
// one way to reach values other than the constants.
func NewTuned(content Content, opts Options, mapConcurrency, maxMapBytes int) *Server {
	s := New(content, opts)
	s.mapConcurrency = mapConcurrency
	if maxMapBytes > 0 {
		s.maxMapBytes = maxMapBytes
	}
	return s
}

// OriginHandler is the handler behind o, an origin NewOrigin made, for a
// test to wrap.
func OriginHandler(o any) *http.Handler { return &o.(*originAdapter).h }

// BuildSite is buildSite for the tests of the package from outside it.
func BuildSite() *MemContent { return buildSite() }
