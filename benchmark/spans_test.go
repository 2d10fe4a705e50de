package main

import "testing"

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "a.leaf", Start: 15, End: 20, Parent: 1},
		{Name: "orphan", Start: 0, End: 5, Parent: 99},
	}
	self := selfTimes(spans)
	// a ∪ b covers [10,60), c clipped covers [90,100): 60 of 100.
	want := []int64{40, 25, 30, 30, 5, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if got := selfByName(spans)["pass"]; got != 40e-9 {
		t.Errorf("selfByName[pass] = %v, want 40e-9", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	var tc *traceCtx
	tc.end(tc.begin("y"))
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 0)
	kid := tr.begin("kid", root, 0)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[kid].Parent != root {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[root].End < tr.spans[kid].End || tr.spans[kid].Start < tr.spans[root].Start {
		t.Errorf("child %+v not inside parent %+v", tr.spans[kid], tr.spans[root])
	}
}
