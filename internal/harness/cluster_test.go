package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestClusterCell is the multi-instance acceptance run: three edge
// instances serving two tenants through the consistent-hash ring, with
// telemetry-verified per-tenant hit ratios, a hot-map adoption on a
// non-owner, and a kill-one-node chaos step that re-shards and re-probes
// instead of erroring. Every instance runs the daemon's -config stack, so
// each tenant's upstream has a health checker. `make cluster` runs exactly
// this under -race.
func TestClusterCell(t *testing.T) {
	cell, err := NewClusterCell()
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	for _, inst := range cell.Instances {
		for _, tn := range cell.Tenants {
			if _, ok := inst.Registry.Snapshot().Counters["tenant."+tn+".health.checks"]; !ok {
				t.Fatalf("%s runs no health checker for tenant %s: the cell is not the daemon's edge", inst.ID, tn)
			}
		}
	}

	const pages = 12
	paths := make([]string, pages)
	for i := range paths {
		paths[i] = fmt.Sprintf("/page%d.html", i)
	}

	// Phase 1: cold sweep, then a warm sweep. Ring routing concentrates
	// each page on one instance, so the second pass must be warm there.
	owners := map[string]string{}
	for _, tn := range cell.Tenants {
		for _, p := range paths {
			status, body, hdr, servedBy, err := cell.Get(tn, p)
			if err != nil || status != 200 {
				t.Fatalf("cold %s%s: %d %v", tn, p, status, err)
			}
			if !strings.Contains(string(body), tn+" "+p) {
				t.Fatalf("tenant body crossed: %s%s got %q", tn, p, body)
			}
			if hdr.Get("X-Etag-Config") == "" {
				t.Fatalf("%s%s served without a map", tn, p)
			}
			owners[tn+p] = servedBy
		}
	}
	for _, tn := range cell.Tenants {
		for _, p := range paths {
			_, _, _, servedBy, err := cell.Get(tn, p)
			if err != nil {
				t.Fatalf("warm %s%s: %v", tn, p, err)
			}
			if servedBy != owners[tn+p] {
				t.Fatalf("ring routing unstable: %s%s moved %s → %s", tn, p, owners[tn+p], servedBy)
			}
		}
	}
	for _, tn := range cell.Tenants {
		if ratio := cell.HitRatio(tn); ratio < 0.4 {
			t.Fatalf("tenant %s warm hit ratio %.2f — ring concentration not paying off", tn, ratio)
		}
	}
	// Distribution sanity: with 24 (tenant, page) keys over 3 nodes,
	// every node should own some.
	served := map[string]int{}
	for _, id := range owners {
		served[id]++
	}
	if len(served) != 3 {
		t.Fatalf("ring left instances idle: %v", served)
	}

	// Phase 2: hot-map exchange. The owner of t0/page0 built its map on the
	// cold sweep and gossiped it. A non-owner keeps the first map it builds
	// itself, so it is not asked for the page before the owner's
	// announcement has landed there. Gossip is async: wait until the
	// non-owner has received everything its peers published, then one
	// request must adopt the encoding instead of re-probing.
	owner := owners[cell.Tenants[0]+paths[0]]
	var nonOwner string
	for _, inst := range cell.Instances {
		if inst.ID != owner {
			nonOwner = inst.ID
			break
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var published int64
		for _, inst := range cell.Instances {
			if inst.ID != nonOwner {
				published += cell.Snapshot(inst.ID).Counters["cluster.published"]
			}
		}
		received := cell.Snapshot(nonOwner).Counters["cluster.received"]
		if received >= published {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("non-owner %s received %d of the %d announcements its peers published", nonOwner, received, published)
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := cell.Snapshot(nonOwner).Counters["middleware.hotmap_hits"]
	status, _, hdr, err := cell.GetFrom(nonOwner, cell.Tenants[0], paths[0])
	if err != nil || status != 200 {
		t.Fatalf("non-owner serve: %d %v", status, err)
	}
	if hdr.Get("X-Etag-Config") == "" {
		t.Fatal("non-owner served without a map")
	}
	if after := cell.Snapshot(nonOwner).Counters["middleware.hotmap_hits"]; after != before+1 {
		t.Fatalf("non-owner %s did not adopt the peer encoding: %v", nonOwner, cell.Snapshot(nonOwner).Counters)
	}
	if got := cell.Snapshot(owner).Counters["cluster.published"]; got == 0 {
		t.Fatalf("owner %s never gossiped: %v", owner, cell.Snapshot(owner).Counters)
	}
	if got := cell.Snapshot(nonOwner).Counters["cluster.adopted"]; got == 0 {
		t.Fatal("non-owner adoption not visible in exchange telemetry")
	}

	// Phase 3: kill a node mid-run. Routing re-shards (its keys move to
	// survivors, everyone else's stay put), every request keeps
	// succeeding, and the survivors re-probe the moved pages.
	victim := owner
	cell.Kill(victim)
	if cell.Ring.Len() != 2 {
		t.Fatalf("ring still has %d members after kill", cell.Ring.Len())
	}
	for _, tn := range cell.Tenants {
		for _, p := range paths {
			status, body, _, servedBy, err := cell.Get(tn, p)
			if err != nil || status != 200 {
				t.Fatalf("post-kill %s%s: %d %v", tn, p, status, err)
			}
			if servedBy == victim {
				t.Fatalf("dead instance %s served %s%s", victim, tn, p)
			}
			if prev := owners[tn+p]; prev != victim && servedBy != prev {
				t.Fatalf("kill moved a surviving owner's key: %s%s %s → %s", tn, p, prev, servedBy)
			}
			if !strings.Contains(string(body), tn+" "+p) {
				t.Fatalf("post-kill body wrong for %s%s: %q", tn, p, body)
			}
		}
	}
}
