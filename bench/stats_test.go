package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{200, 0.95, 10, true}, // exactly ten beyond: supported
		{199, 0.95, 9, false},
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{320, 0.95, 16, true},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	} {
		if got := samplesBeyond(tc.n, tc.q); got != tc.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyond)
		}
		if got := supported(tc.n, tc.q); got != tc.ok {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
}

// TestOpenLoopAccountingOnAStall replays a synthetic schedule in which the
// server stalls for 35 ms on one request while arrivals keep coming due every
// 10 ms: the later arrivals leave late, and their latency, taken from the due
// time, must include the time they spent queued behind the stall.
func TestOpenLoopAccountingOnAStall(t *testing.T) {
	const gap = 10 * time.Millisecond
	service := []time.Duration{2, 35, 2, 2, 2, 2}
	var results []arrivalResult
	var nextDue []time.Duration
	prevDone := time.Duration(0)
	for i, s := range service {
		due := time.Duration(i+1) * gap
		sent := max(due, prevDone)
		r := arrivalResult{Due: due, Ready: sent, Sent: sent, Visible: sent + s*time.Millisecond, Updates: 1}
		prevDone = r.Visible
		results = append(results, r)
		nextDue = append(nextDue, due+gap)
	}
	st := accountWrites(results, nextDue, 0, time.Hour)
	// Arrival 2 (due 20) answers at 55; arrival 3 (due 30) leaves at 55 and
	// answers at 57; arrival 4 (due 40) at 59; arrival 5 (due 50) at 61;
	// arrival 6 (due 60) leaves at 61, on time again.
	want := []float64{2, 35, 27, 19, 11, 3}
	if len(st.VisibleMs) != len(want) {
		t.Fatalf("got %d latency samples, want %d", len(st.VisibleMs), len(want))
	}
	for i, w := range want {
		if st.VisibleMs[i] != w {
			t.Errorf("arrival %d: latency %v ms, want %v ms (from the due time)", i+1, st.VisibleMs[i], w)
		}
	}
	// Missed: visible after the next arrival's due time — arrivals 2 (55 >
	// 30), 3 (57 > 40), 4 (59 > 50) and 5 (61 > 60).
	if st.Missed != 4 || st.Updates != 6 {
		t.Errorf("missed %d of %d, want 4 of 6", st.Missed, st.Updates)
	}
	if got, want := st.missedFrac(), 4.0/6.0; got != want {
		t.Errorf("missedFrac = %v, want %v", got, want)
	}
	// The generator itself was never late: every send happened the moment it
	// could.
	for i, lag := range st.SchedLag {
		if lag != 0 {
			t.Errorf("arrival %d: generator lag %v ms, want 0", i+1, lag)
		}
	}
}

func TestAccountingCountsFailuresAsMissedAndBurstsPerUpdate(t *testing.T) {
	results := []arrivalResult{
		{Due: 10 * time.Millisecond, Ready: 10 * time.Millisecond, Sent: 10500 * time.Microsecond,
			Visible: 14 * time.Millisecond, Updates: 16, Failed: 2}, // in time, two refused
		{Due: 50 * time.Millisecond, Ready: 50 * time.Millisecond, Sent: 50 * time.Millisecond,
			Visible: 120 * time.Millisecond, Updates: 16}, // late: all sixteen missed
		{Due: 200 * time.Millisecond, Ready: 200 * time.Millisecond, Sent: 200 * time.Millisecond,
			Visible: 201 * time.Millisecond, Updates: 16}, // outside the window
	}
	nextDue := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond}
	st := accountWrites(results, nextDue, 0, 150*time.Millisecond)
	if st.Updates != 32 || st.Missed != 18 || st.Failed != 2 {
		t.Errorf("updates %d missed %d failed %d, want 32, 18, 2", st.Updates, st.Missed, st.Failed)
	}
	if len(st.VisibleMs) != 32 || st.VisibleMs[0] != 4 || st.VisibleMs[31] != 70 {
		t.Errorf("per-update latencies wrong: %d samples, first %v, last %v", len(st.VisibleMs), st.VisibleMs[0], st.VisibleMs[31])
	}
	if len(st.SchedLag) != 2 || st.SchedLag[0] != 0.5 {
		t.Errorf("generator lag %v, want [0.5 0]", st.SchedLag)
	}
}
