package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		0: {Name: "request", Start: 0, End: 100, Parent: -1},
		// Two probes that overlap each other: they cover 10..50 once.
		1: {Name: "probe", Start: 10, End: 40, Parent: 0},
		2: {Name: "probe", Start: 30, End: 50, Parent: 0},
		// A child wholly inside another child's interval adds no cover.
		3: {Name: "probe", Start: 35, End: 38, Parent: 0},
		// A later child with its own nested child.
		4: {Name: "fetch", Start: 60, End: 80, Parent: 0},
		5: {Name: "parse", Start: 65, End: 70, Parent: 4},
		// A child that outlives its parent is clipped to the parent.
		6: {Name: "late", Start: 95, End: 130, Parent: 0},
		// An unrelated root.
		7: {Name: "leaf", Start: 200, End: 207, Parent: -1},
	}
	self := selfTimes(spans)
	want := []int64{
		0: 100 - 40 - 20 - 5, // minus 10..50, 60..80, 95..100
		1: 30,
		2: 20,
		3: 3,
		4: 15, // grandchildren count against their own parent only
		5: 5,
		6: 35,
		7: 7,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 7)
	child := tr.timed("origin.serve", root, 7, func() {})
	tr.end(root)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	r, c := tr.spans[root], tr.spans[child]
	if c.Parent != root || c.Req != 7 || r.Parent != -1 {
		t.Errorf("parent/request not recorded: root %+v child %+v", r, c)
	}
	if c.Start < r.Start || c.End > r.End || r.End < r.Start {
		t.Errorf("child not inside parent: root %+v child %+v", r, c)
	}
}
