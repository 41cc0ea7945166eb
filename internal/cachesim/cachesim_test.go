package cachesim

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cachecatalyst/internal/cachestore"
)

func TestParseTraceRoundTrip(t *testing.T) {
	in := []Request{{0, 1, 100}, {5, 2, 2048}, {5, 1, 100}, {9, 3, 1}}
	var sb strings.Builder
	if err := WriteTrace(&sb, in); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	out, err := ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("request %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestParseTraceSkipsCommentsAndBlanks(t *testing.T) {
	trace := "# provenance: test\n\n0 1 10\n   \n# mid comment\n1 2 20\n"
	reqs, err := ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
}

func TestParseTraceErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name, trace, want string
	}{
		{"too few fields", "0 1 10\n1 2\n", "line 2"},
		{"bad time", "x 1 10\n", "line 1"},
		{"bad id", "0 -1 10\n", "line 1"},
		{"bad size", "0 1 ten\n", "line 1"},
		{"zero size", "# c\n0 1 0\n", "line 2"},
		{"negative size", "0 1 -5\n", "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.trace))
			if err == nil {
				t.Fatal("ParseTrace accepted malformed trace")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestRecorderInternsKeys(t *testing.T) {
	r := NewRecorder()
	r.Record("/a.css", 100)
	r.Record("/b.js", 200)
	r.Record("/a.css", 100)
	tr := r.Trace()
	if len(tr) != 3 {
		t.Fatalf("recorded %d requests, want 3", len(tr))
	}
	if tr[0].ID != tr[2].ID {
		t.Errorf("same key got ids %d and %d", tr[0].ID, tr[2].ID)
	}
	if tr[0].ID == tr[1].ID {
		t.Error("distinct keys share an id")
	}
	if tr[0].Time >= tr[1].Time || tr[1].Time >= tr[2].Time {
		t.Errorf("times not increasing: %d %d %d", tr[0].Time, tr[1].Time, tr[2].Time)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(SynthOptions{Requests: 2000, Objects: 100, Seed: 7})
	b := Synthesize(SynthOptions{Requests: 2000, Objects: 100, Seed: 7})
	if len(a) != 2000 {
		t.Fatalf("got %d requests, want 2000", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across same-seed runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Synthesize(SynthOptions{Requests: 2000, Objects: 100, Seed: 8})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestSynthesizeSizesConsistentPerObject(t *testing.T) {
	trace := Synthesize(SynthOptions{Requests: 5000, Objects: 50, Seed: 3})
	sizes := make(map[uint64]int64)
	for _, req := range trace {
		if req.Size <= 0 {
			t.Fatalf("non-positive size %d", req.Size)
		}
		if prev, ok := sizes[req.ID]; ok && prev != req.Size {
			t.Fatalf("object %d changed size %d -> %d", req.ID, prev, req.Size)
		}
		sizes[req.ID] = req.Size
	}
	if len(sizes) < 2 {
		t.Fatalf("trace touched %d objects; popularity sampling broken", len(sizes))
	}
}

func TestReplayHandTrace(t *testing.T) {
	// A(10) B(10) A(10): with budget 20 both fit, the revisit of A hits.
	trace := []Request{{0, 1, 10}, {1, 2, 10}, {2, 1, 10}}
	res := Replay(trace, 20, cachestore.Policy{})
	if res.Requests != 3 || res.BytesRequested != 30 {
		t.Fatalf("totals = %d reqs / %d bytes, want 3 / 30", res.Requests, res.BytesRequested)
	}
	if res.Hits != 1 || res.BytesHit != 10 {
		t.Fatalf("hits = %d (%d bytes), want 1 (10 bytes)", res.Hits, res.BytesHit)
	}
	if got := res.OHR(); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("OHR = %v, want 1/3", got)
	}
	if got := res.BHR(); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("BHR = %v, want 1/3", got)
	}
	if res.Policy != "lru" {
		t.Errorf("Policy = %q, want lru", res.Policy)
	}
}

func TestUpperBoundHandTrace(t *testing.T) {
	// Three objects of size 4, each re-requested with gap 3:
	//   0: A   1: B   2: C   3: A   4: B   5: C
	// Footprint per interval = 4*3 = 12 byte·requests; 36 total over a
	// trace of T=6 requests.
	trace := []Request{
		{0, 1, 4}, {1, 2, 4}, {2, 3, 4},
		{3, 1, 4}, {4, 2, 4}, {5, 3, 4},
	}

	// Budget 6 gives 36 byte·requests of occupancy: all three fit.
	ub := UpperBound(trace, 6)
	if math.Abs(ub.MaxHits-3) > 1e-9 || math.Abs(ub.MaxBytesHit-12) > 1e-9 {
		t.Errorf("budget 6: MaxHits=%v MaxBytesHit=%v, want 3 and 12", ub.MaxHits, ub.MaxBytesHit)
	}

	// Budget 4 gives 24: exactly two intervals fit.
	ub = UpperBound(trace, 4)
	if math.Abs(ub.MaxHits-2) > 1e-9 || math.Abs(ub.MaxBytesHit-8) > 1e-9 {
		t.Errorf("budget 4: MaxHits=%v MaxBytesHit=%v, want 2 and 8", ub.MaxHits, ub.MaxBytesHit)
	}

	// Budget 5 gives 30: two whole intervals plus 6/12 of the third.
	ub = UpperBound(trace, 5)
	if math.Abs(ub.MaxHits-2.5) > 1e-9 || math.Abs(ub.MaxBytesHit-10) > 1e-9 {
		t.Errorf("budget 5: MaxHits=%v MaxBytesHit=%v, want 2.5 and 10", ub.MaxHits, ub.MaxBytesHit)
	}

	// A budget below the object size admits no hits at all, and neither
	// does a zero budget.
	for _, budget := range []int64{3, 0} {
		ub = UpperBound(trace, budget)
		if ub.MaxHits != 0 || ub.MaxBytesHit != 0 {
			t.Errorf("budget %d: MaxHits=%v MaxBytesHit=%v, want 0 and 0", budget, ub.MaxHits, ub.MaxBytesHit)
		}
	}
}

func TestUpperBoundExcludesOversizedObjects(t *testing.T) {
	// The size-25 object can never fit a 20-byte cache; only the small
	// object's interval counts.
	trace := []Request{{0, 1, 25}, {1, 2, 5}, {2, 1, 25}, {3, 2, 5}}
	ub := UpperBound(trace, 20)
	if math.Abs(ub.MaxHits-1) > 1e-9 || math.Abs(ub.MaxBytesHit-5) > 1e-9 {
		t.Errorf("MaxHits=%v MaxBytesHit=%v, want 1 and 5", ub.MaxHits, ub.MaxBytesHit)
	}
}

// TestUpperBoundDominatesPolicies is the soundness check that makes
// "% of optimal" numbers trustworthy: no real policy may exceed the bound.
func TestUpperBoundDominatesPolicies(t *testing.T) {
	trace := Synthesize(SynthOptions{Requests: 30000, Objects: 2000, Seed: 42})
	budget := traceBudget(trace, 0.05)
	ub := UpperBound(trace, budget)
	for _, p := range []cachestore.Policy{{}, {Eviction: cachestore.GDSF()}} {
		res := Replay(trace, budget, p)
		if res.OHR() > ub.OHR()+1e-9 {
			t.Errorf("%s OHR %.4f exceeds upper bound %.4f", res.Policy, res.OHR(), ub.OHR())
		}
		if res.BHR() > ub.BHR()+1e-9 {
			t.Errorf("%s BHR %.4f exceeds upper bound %.4f", res.Policy, res.BHR(), ub.BHR())
		}
	}
}

// TestSmartPoliciesBeatLRU pins what the second policy is kept for: on a
// size-skewed synthetic trace under pressure, GDSF wins object hit ratio
// (it keeps many small popular objects where LRU keeps whatever arrived).
func TestSmartPoliciesBeatLRU(t *testing.T) {
	trace := Synthesize(SynthOptions{Requests: 60000, Objects: 4000, Seed: 1})
	budget := traceBudget(trace, 0.02)

	lru := Replay(trace, budget, cachestore.Policy{})
	gdsf := Replay(trace, budget, cachestore.Policy{Eviction: cachestore.GDSF()})

	if gdsf.OHR() <= lru.OHR() {
		t.Errorf("GDSF OHR %.4f did not beat LRU OHR %.4f", gdsf.OHR(), lru.OHR())
	}
	if lru.Counters.VictimScans == 0 {
		t.Error("LRU replay recorded no victim scans under pressure")
	}
}

// serverShapedTrace is the stream the daemon's render cache sees under the
// benchmark's page_churn workload: Zipf(0.9) navigations over 1 200 pages
// whose renders are all about 40 KB, one uniformly drawn page re-versioned
// every 70 requests or so (a new version is a new cache key; the old one
// is dead weight until evicted). Zipf below 1 needs the inverse CDF —
// rand.Zipf refuses s ≤ 1.
func serverShapedTrace(requests int, seed int64) []Request {
	const (
		objects   = 1200
		zipfS     = 0.9
		churnProb = 1.0 / 70
	)
	rng := rand.New(rand.NewSource(seed))
	cdf := make([]float64, objects)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = sum
	}
	size := func() int64 { return 36<<10 + rng.Int63n(8<<10) } // 36–44 KiB
	ids := make([]uint64, objects)
	sizes := make([]int64, objects)
	next := uint64(1)
	for o := range ids {
		ids[o], sizes[o] = next, size()
		next++
	}
	trace := make([]Request, requests)
	for i := range trace {
		if rng.Float64() < churnProb {
			o := rng.Intn(objects)
			ids[o], sizes[o] = next, size()
			next++
		}
		o := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		trace[i] = Request{Time: int64(i), ID: ids[o], Size: sizes[o]}
	}
	return trace
}

// TestDefaultPolicyOnServerShapedStream keeps the measurement behind the
// daemon's LRU default executable. Where every object costs about the same,
// GDSF's size term has nothing to choose between and LRU gives up little:
// it must stay within 3 points of optimal OHR of GDSF at the shipped 16 MiB
// render budget. (The size-skewed traces where GDSF earns its place are
// TestSmartPoliciesBeatLRU's.) The 8 MiB row is logged, not gated.
func TestDefaultPolicyOnServerShapedStream(t *testing.T) {
	trace := serverShapedTrace(200000, 1)
	for _, budget := range []int64{16 << 20, 8 << 20} {
		ub := UpperBound(trace, budget)
		lru := Replay(trace, budget, cachestore.Policy{})
		gdsf := Replay(trace, budget, cachestore.Policy{Eviction: cachestore.GDSF()})
		lruPct, gdsfPct := 100*lru.OHR()/ub.OHR(), 100*gdsf.OHR()/ub.OHR()
		t.Logf("budget %d MiB: bound %.4f, lru %.4f = %.1f%%, gdsf %.4f = %.1f%%",
			budget>>20, ub.OHR(), lru.OHR(), lruPct, gdsf.OHR(), gdsfPct)
		for _, res := range []Result{lru, gdsf} {
			if res.OHR() > ub.OHR()+1e-9 || res.BHR() > ub.BHR()+1e-9 {
				t.Errorf("%s exceeds the offline bound at %d MiB", res.Policy, budget>>20)
			}
		}
		if budget == 16<<20 && gdsfPct-lruPct > 3 {
			t.Errorf("LRU trails GDSF by %.1f points of optimal OHR at the shipped budget (limit 3): the default needs re-measuring", gdsfPct-lruPct)
		}
	}
}

// traceBudget returns frac of the trace's unique-object byte total, the
// conventional way cache sizes are stated in the simulator literature.
func traceBudget(trace []Request, frac float64) int64 {
	seen := make(map[uint64]bool)
	var total int64
	for _, req := range trace {
		if !seen[req.ID] {
			seen[req.ID] = true
			total += req.Size
		}
	}
	b := int64(frac * float64(total))
	if b < 1 {
		b = 1
	}
	return b
}
