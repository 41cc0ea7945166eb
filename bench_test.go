// Package bench holds the simulator experiments that cmd/pltbench does not
// print: the Figure 1 scenario, the change-rate, slow-start and
// fingerprinting ablations, First Contentful Paint, and the emulator's own
// cold-load cost. Figure 3, the headline, the corpus statistics, the §5
// baselines, header overhead, coverage and the H2 / mobile ablations are
// pltbench experiments and flags (DESIGN.md §4, EXPERIMENTS.md).
//
// Each benchmark both times its experiment and reports the experiment's
// key quantity as a custom metric (ReportMetric), so
//
//	go test -run '^$' -bench . -benchmem .
//
// prints the reproduction numbers alongside the usual ns/op. Benchmarks use
// a reduced corpus so the suite completes quickly.
package bench

import (
	"fmt"
	"testing"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/browser"
	"cachecatalyst/internal/harness"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// benchCorpus is the reduced corpus shared by the experiment benchmarks.
func benchCorpus() webgen.Params {
	return webgen.Params{Sites: 8, Seed: 1, Scale: 0.6}
}

// BenchmarkFig1 regenerates the Figure 1 scenario: the example page's first
// visit, conventional revisit, and CacheCatalyst revisit. The reported
// metrics are the three PLTs in milliseconds.
func BenchmarkFig1(b *testing.B) {
	const host = "site.example"
	cond := netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}
	build := func(clock vclock.Clock, decorated bool) browser.OriginMap {
		c := server.NewMemContent()
		week := server.CachePolicy{MaxAge: 7 * 24 * time.Hour, HasMaxAge: true}
		c.SetBody("/index.html", `<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body></body></html>`, server.CachePolicy{NoCache: true})
		c.SetBody("/a.css", "body{}", week)
		c.SetBody("/b.js", "//@fetch /c.js\n", server.CachePolicy{NoCache: true})
		c.SetBody("/c.js", "//@fetch /d.jpg\n", week)
		c.SetBody("/d.jpg", "JPEG", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
		srv := server.New(c, server.Options{Record: decorated, Clock: clock})
		if !decorated {
			return browser.OriginMap{host: server.NewOrigin(srv)}
		}
		return browser.OriginMap{host: server.NewOrigin(catalyst.Middleware(srv, catalyst.MiddlewareOptions{}))}
	}

	var cold, conv, cat time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clockA := vclock.NewVirtual(vclock.Epoch)
		origA := build(clockA, false)
		bA := browser.New(clockA, browser.Conventional, netsim.TransportOptions{})
		r0, err := bA.Load(origA, cond, host, "/index.html")
		if err != nil {
			b.Fatal(err)
		}
		clockA.Advance(2 * time.Hour)
		r1, _ := bA.Load(origA, cond, host, "/index.html")

		clockB := vclock.NewVirtual(vclock.Epoch)
		origB := build(clockB, true)
		bB := browser.New(clockB, browser.Catalyst, netsim.TransportOptions{})
		if _, err := bB.Load(origB, cond, host, "/index.html"); err != nil {
			b.Fatal(err)
		}
		clockB.Advance(2 * time.Hour)
		r2, _ := bB.Load(origB, cond, host, "/index.html")
		cold, conv, cat = r0.PLT, r1.PLT, r2.PLT
	}
	b.ReportMetric(ms(cold), "fig1a-cold-ms")
	b.ReportMetric(ms(conv), "fig1b-conv-ms")
	b.ReportMetric(ms(cat), "fig1c-cat-ms")
}

// BenchmarkAblationChangeRate sweeps revisit delay — a proxy for content
// volatility: the longer the gap, the more resources have really changed
// and the less any token scheme can save.
func BenchmarkAblationChangeRate(b *testing.B) {
	cfg := harness.Config{
		Corpus: benchCorpus(),
		Grid:   []netsim.Conditions{harness.Median5G()},
		Delays: []time.Duration{time.Minute, 6 * time.Hour, 7 * 24 * time.Hour, 30 * 24 * time.Hour},
	}
	var res *harness.SweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, dp := range res.Cells[0].ByDelay {
		b.ReportMetric(dp.MeanReductionPct, "+"+dp.Delay.String()+"-%")
	}
}

// BenchmarkColdLoad measures raw emulator throughput: one full cold page
// load (≈40 resources) per iteration, including corpus materialization.
func BenchmarkColdLoad(b *testing.B) {
	cond := harness.Median5G()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := harness.NewWorld(benchCorpus(), i%8, harness.SchemeConventional, netsim.TransportOptions{})
		if _, err := w.Load(cond); err != nil {
			b.Fatal(err)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// BenchmarkFCP reports the First-Contentful-Paint reduction at the
// 5G-median condition — the UX metric the paper's §6 defers to future
// work, implemented here.
func BenchmarkFCP(b *testing.B) {
	cfg := harness.Config{
		Corpus: benchCorpus(),
		Grid:   []netsim.Conditions{harness.Median5G()},
		Delays: []time.Duration{time.Hour},
	}
	var res *harness.SweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Cells[0].FCPReductionPct, "fcp-reduction-%")
	b.ReportMetric(res.Cells[0].MeanReductionPct, "plt-reduction-%")
}

// BenchmarkAblationSlowStart reruns the 5G-median cell with TCP slow-start
// modelling enabled. Counterintuitive finding: the reduction *shrinks*,
// because the conventional client's stream of tiny revalidations doubles as
// congestion-window warming for the transfers it cannot avoid, while the
// catalyst client hits those same transfers on cold windows. Another
// second-order effect the paper's evaluation does not surface.
func BenchmarkAblationSlowStart(b *testing.B) {
	for _, ss := range []bool{false, true} {
		name := "fluid-only"
		if ss {
			name = "with-slow-start"
		}
		b.Run(name, func(b *testing.B) {
			cfg := harness.Config{
				Corpus:    benchCorpus(),
				Transport: netsim.TransportOptions{SlowStart: ss},
				Grid:      []netsim.Conditions{harness.Median5G()},
				Delays:    []time.Duration{time.Hour},
			}
			var res *harness.SweepResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = harness.RunFig3(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.OverallReduction, "reduction-%")
			b.ReportMetric(float64(res.Cells[0].MeanBasePLT.Milliseconds()), "conv-warm-ms")
		})
	}
}

// BenchmarkAblationFingerprinting sweeps the fraction of assets deployed
// the best-practice way (immutable TTL + version-stamped URL). As
// fingerprinting rises, there are fewer spurious revalidations for
// CacheCatalyst to eliminate — quantifying how much of the paper's win
// assumes today's header misconfiguration.
func BenchmarkAblationFingerprinting(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("fingerprint-%.0f%%", frac*100), func(b *testing.B) {
			corpus := benchCorpus()
			corpus.FingerprintFrac = frac
			cfg := harness.Config{
				Corpus: corpus,
				Grid:   []netsim.Conditions{harness.Median5G()},
				Delays: []time.Duration{time.Hour, 24 * time.Hour},
			}
			var res *harness.SweepResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = harness.RunFig3(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.OverallReduction, "reduction-%")
		})
	}
}
