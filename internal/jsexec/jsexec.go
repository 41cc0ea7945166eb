// Package jsexec emulates the one aspect of JavaScript execution that
// matters for page loading: scripts fetch further resources at runtime.
//
// The synthetic corpus embeds machine-readable fetch directives in script
// bodies; the emulated browser "executes" a script by extracting them. The
// directives stand in for resource URLs that are computed at runtime — the
// paper's §3 point is that a server cannot discover these statically, so
// internal/server deliberately never parses them: only the client-side
// browser emulation does, reproducing the coverage gap the paper defers to
// future work (and that the recording mode closes).
package jsexec

import (
	"strings"
)

// DirectivePrefix starts a fetch directive line inside a script body.
const DirectivePrefix = "//@fetch "

// Directive renders a fetch directive for url.
func Directive(url string) string { return DirectivePrefix + url }

// ExtractFetches returns the URLs a script fetches when executed, in
// program order. Directives must start a line (modulo leading whitespace);
// anything else is inert script text. The returned URLs are substrings of
// js.
func ExtractFetches(js string) []string {
	var out []string
	for js != "" {
		var line string
		line, js, _ = strings.Cut(js, "\n")
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, DirectivePrefix) {
			continue
		}
		url := strings.TrimSpace(line[len(DirectivePrefix):])
		if url != "" {
			out = append(out, url)
		}
	}
	return out
}

// ExecDelay is the simulated execution time charged per script, modelling
// parse+evaluate cost before fetch directives take effect. Kept small and
// fixed: script CPU cost is not the phenomenon under study, but a zero
// delay would let JS-discovered fetches start unrealistically early.
const ExecDelayMillis = 2
