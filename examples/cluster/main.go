// Command cluster demonstrates the tenant-aware edge tier end to end:
// three catalystd-style instances serve two tenants over real loopback
// sockets, a consistent-hash ring concentrates each page on one node, the
// hot-map exchange lets a non-owner adopt a peer's X-Etag-Config without
// re-probing, and killing a node mid-run re-shards instead of erroring.
//
//	go run ./examples/cluster
//
// The process exits non-zero when any invariant fails, so `make cluster`
// uses it as a smoke gate alongside the harness cell test.
package main

import (
	"fmt"
	"log"
	"time"

	"cachecatalyst/internal/harness"
)

func main() {
	cell, err := harness.NewClusterCell(harness.ClusterCellOptions{Instances: 3, Tenants: 2})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	defer cell.Close()

	const pages = 10
	paths := make([]string, pages)
	for i := range paths {
		paths[i] = fmt.Sprintf("/page%d.html", i)
	}

	// Two sweeps: the first renders and probes everything on each page's
	// ring owner, the second serves warm from the owner's caches.
	owners := map[string]string{}
	for pass := 0; pass < 2; pass++ {
		for _, tn := range cell.Tenants {
			for _, p := range paths {
				status, _, _, servedBy, err := cell.Get(tn, p)
				if err != nil || status != 200 {
					log.Fatalf("cluster: %s%s: status %d, %v", tn, p, status, err)
				}
				owners[tn+p] = servedBy
			}
		}
	}
	fmt.Println("three instances, two tenants, ring-routed:")
	for _, tn := range cell.Tenants {
		fmt.Printf("  tenant %s warm hit ratio: %.2f\n", tn, cell.HitRatio(tn))
	}

	// Steer one warm page at a node that does not own it: the exchange
	// should hand it the owner's encoding, skipping the probe fan-out.
	page := cell.Tenants[0] + paths[0]
	owner := owners[page]
	var peer string
	for _, inst := range cell.Instances {
		if inst.ID != owner {
			peer = inst.ID
			break
		}
	}
	// A node keeps the first map it builds itself, so the peer is asked only
	// once everything the other nodes gossiped has landed there.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var published int64
		for _, inst := range cell.Instances {
			if inst.ID != peer {
				published += cell.Snapshot(inst.ID).Counters["cluster.published"]
			}
		}
		if cell.Snapshot(peer).Counters["cluster.received"] >= published {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("cluster: %s never received its peers' announcements", peer)
		}
	}
	if _, _, _, err := cell.GetFrom(peer, cell.Tenants[0], paths[0]); err != nil {
		log.Fatalf("cluster: peer serve: %v", err)
	}
	if cell.Snapshot(peer).Counters["middleware.hotmap_hits"] == 0 {
		log.Fatalf("cluster: %s never adopted %s's hot map", peer, owner)
	}
	fmt.Printf("  %s adopted %s's gossiped map for %s without re-probing\n", peer, owner, page)

	// Chaos: kill the owner. Every page keeps serving; only the dead
	// node's keys move.
	cell.Kill(owner)
	moved := 0
	for _, tn := range cell.Tenants {
		for _, p := range paths {
			status, _, _, servedBy, err := cell.Get(tn, p)
			if err != nil || status != 200 {
				log.Fatalf("cluster: post-kill %s%s: status %d, %v", tn, p, status, err)
			}
			if prev := owners[tn+p]; prev == owner {
				moved++
			} else if servedBy != prev {
				log.Fatalf("cluster: kill moved %s%s off surviving owner %s", tn, p, prev)
			}
		}
	}
	fmt.Printf("  killed %s: %d/%d keys re-sharded to survivors, zero errors\n",
		owner, moved, len(owners))
}
