package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile of sorted by the nearest-rank rule: the
// smallest sample with at least a share q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// samplesBeyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	return n - min(max(rank, 1), n)
}

// supported reports whether n samples support quantile q: a percentile is
// only reported as such with at least ten samples beyond it.
func supported(n int, q float64) bool { return samplesBeyond(n, q) >= 10 }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// arrivalResult is what the writer recorded for one arrival (one update, or
// one burst sharing a due time). All times are offsets from the schedule's
// start.
type arrivalResult struct {
	Due time.Duration
	// Ready is when the generator could have sent: the later of Due and the
	// previous arrival's response. Sent − Ready is the generator's own
	// lateness (timer overshoot, scheduling), not the server's.
	Ready time.Duration
	Sent  time.Duration
	// Visible is when the covering wait:true response arrived.
	Visible time.Duration
	Updates int
	// Failed counts the arrival's updates that were refused, rejected or
	// lost to a transport error.
	Failed int
}

// writeStats is the open-loop accounting of a run of arrivals.
type writeStats struct {
	// VisibleMs holds one sample per update: covering response minus due
	// time, so client-side queueing behind a stalled request is included.
	VisibleMs []float64
	// ServiceMs holds one sample per arrival: covering response minus send
	// time, the client-side view of the daemon's enqueue→visible time.
	ServiceMs []float64
	SchedLag  []float64 // ms, one per arrival
	Updates   int
	// Missed counts updates not visible before the next arrival's due time,
	// the paper's online criterion; a failed update counts as missed.
	Missed int
	Failed int
}

// accountWrites folds the arrivals whose due time lies in [from, to) into
// writeStats. nextDue[i] is the due time of the arrival after results[i].
func accountWrites(results []arrivalResult, nextDue []time.Duration, from, to time.Duration) writeStats {
	var st writeStats
	for i, r := range results {
		if r.Due < from || r.Due >= to {
			continue
		}
		st.Updates += r.Updates
		st.Failed += r.Failed
		st.SchedLag = append(st.SchedLag, ms(r.Sent-r.Ready))
		st.ServiceMs = append(st.ServiceMs, ms(r.Visible-r.Sent))
		lat := ms(r.Visible - r.Due)
		for k := 0; k < r.Updates; k++ {
			st.VisibleMs = append(st.VisibleMs, lat)
		}
		if r.Visible > nextDue[i] {
			st.Missed += r.Updates
		} else {
			st.Missed += r.Failed
		}
	}
	return st
}

func (st writeStats) missedFrac() float64 {
	if st.Updates == 0 {
		return 0
	}
	return float64(st.Missed) / float64(st.Updates)
}
