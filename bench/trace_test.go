package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "arrival", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "router.enqueue_wait", Start: 10, End: 90},
		// Two shards applying in parallel: their union covers [20, 70).
		{ID: 3, Parent: 2, Name: "router.shard_apply", Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "router.shard_apply", Start: 30, End: 70},
		// A child wholly inside another child's interval adds nothing.
		{ID: 5, Parent: 2, Name: "router.shard_apply", Start: 35, End: 40},
		// A child running past its parent is clipped to it.
		{ID: 6, Parent: 2, Name: "late", Start: 85, End: 95},
		{ID: 7, Parent: 3, Name: "bdstore.load", Start: 25, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 20, // 100 − [10, 90)
		2: 25, // 80 − [20, 70) − [85, 90)
		3: 35, // 40 − [25, 30)
		4: 40,
		5: 5,
		6: 10,
		7: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfByNameAccountsForTheWholeArrival(t *testing.T) {
	spans := []span{
		{ID: 1, Pass: "A", Name: "arrival", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Pass: "A", Name: "server.wal.append", Start: 0, End: 300},
		{ID: 3, Parent: 1, Pass: "A", Name: "engine.apply_batch", Start: 300, End: 900},
		{ID: 4, Parent: 3, Pass: "A", Name: "bdstore.load", Start: 400, End: 500},
		{ID: 5, Parent: 3, Pass: "A", Name: "bdstore.save", Start: 600, End: 650},
		{ID: 6, Pass: "B", Name: "arrival", Start: 2000, End: 2500},
	}
	byName, roots := selfByName(spans, "A")
	if roots != 1000 {
		t.Fatalf("root time %d, want 1000 (pass B excluded)", roots)
	}
	want := map[string]time.Duration{
		"arrival": 100, "server.wal.append": 300, "engine.apply_batch": 450,
		"bdstore.load": 100, "bdstore.save": 50,
	}
	sum := time.Duration(0)
	for name, w := range want {
		if byName[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, byName[name], w)
		}
		sum += byName[name]
	}
	if sum != roots {
		t.Errorf("self times sum to %d, want the root time %d", sum, roots)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder()
	root := r.arrival("arrival")
	r.end(r.begin("child", root))
	r.end(root)
	if len(r.spans) != 0 {
		t.Fatalf("recorder that was never switched on holds %d spans", len(r.spans))
	}
	r.setPass("A")
	root = r.arrival("arrival")
	child := r.begin("child", root)
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[0].Trace != r.spans[1].Trace {
		t.Fatalf("spans %+v: want a root and its child sharing one trace", r.spans)
	}
	if r.spans[0].End < r.spans[1].End || r.spans[1].Start < r.spans[0].Start {
		t.Errorf("child interval %+v is not inside its parent %+v", r.spans[1], r.spans[0])
	}
}
