package server

import "net/http"

// OriginHandler is the handler behind o, an origin NewOrigin made, for a
// test to wrap.
func OriginHandler(o any) *http.Handler { return &o.(*originAdapter).h }

// BuildSite is buildSite for the tests of the package from outside it.
func BuildSite() *MemContent { return buildSite() }
