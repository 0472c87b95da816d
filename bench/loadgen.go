package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"streambc/internal/graph"
)

// The load generator drives the daemons open loop from this one process over
// exactly two connections: the writer's and the reader's. Each sends its
// requests one after the other on its connection at the scheduled due times;
// when the server stalls, later requests leave late and their latency, taken
// from the due time, includes that wait.

// spinMargin is how long before a due time the generator stops sleeping and
// spins. The sleep is nanosleep(2) on the calling thread, which on the
// benchmark box overshoots by 0.1–0.2 ms; time.Sleep, which rounds to the
// runtime's millisecond poller, overshoots by up to a millisecond, and either
// overshoot would otherwise be charged to the server as latency.
const spinMargin = 250 * time.Microsecond

// waitUntil returns at t (within a microsecond on an idle core).
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only lengthens the spin
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// newConn returns an HTTP client bound to a single keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 90 * time.Second,
	}
}

// updateBody renders the JSON body of POST /v1/update.
func updateBody(u graph.Update, wait bool) []byte {
	return []byte(fmt.Sprintf(`{%s,"wait":%t}`, updateFields(u), wait))
}

// batchBody renders the JSON body of POST /v1/updates.
func batchBody(ups []graph.Update, wait bool) []byte {
	var b bytes.Buffer
	b.WriteString(`{"updates":[`)
	for i, u := range ups {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "{%s}", updateFields(u))
	}
	fmt.Fprintf(&b, `],"wait":%t}`, wait)
	return b.Bytes()
}

func updateFields(u graph.Update) string {
	op := "add"
	if u.Remove {
		op = "remove"
	}
	return fmt.Sprintf(`"op":%q,"u":%d,"v":%d`, op, u.U, u.V)
}

// opCounts tallies every operation the generator attempted, over all phases.
// An operation is one update or one read.
type opCounts struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// writer posts updates to one front end over its own connection.
type writer struct {
	conn  *http.Client
	base  string
	ops   *opCounts
	start time.Time // the schedule's zero
	// coalesced sums the "coalesced" field of the wait:true responses.
	coalesced int
}

// post sends ups as one request — POST /v1/update for a single update, POST
// /v1/updates for several — and reports how many of them failed: all of them
// on a transport error, a non-2xx status or a wait:true that was not waited
// for, else the number the server rejected. A wait:true response covers
// every update posted before it on this connection (the ingest queue is
// FIFO).
func (w *writer) post(ups []graph.Update, wait bool) (failed int) {
	w.ops.attempted.Add(int64(len(ups)))
	defer func() { w.ops.failed.Add(int64(failed)) }()
	url, body := w.base+"/v1/update", []byte(nil)
	if len(ups) == 1 {
		body = updateBody(ups[0], wait)
	} else {
		url, body = w.base+"/v1/updates", batchBody(ups, wait)
	}
	resp, err := w.conn.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return len(ups)
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse only
	if !wait {
		if resp.StatusCode != http.StatusAccepted {
			return len(ups)
		}
		return 0
	}
	var answer struct {
		Waited    bool `json:"waited"`
		Coalesced int  `json:"coalesced"`
		Rejected  int  `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil || resp.StatusCode != http.StatusOK || !answer.Waited {
		return len(ups)
	}
	w.coalesced += answer.Coalesced
	return answer.Rejected
}

// runSchedule sends arrivals [first, last) of in at their due times, each as
// one wait:true request, and returns one result per arrival.
func (w *writer) runSchedule(in *inputs, first, last int, prevDone time.Duration) []arrivalResult {
	results := make([]arrivalResult, 0, last-first)
	for i := first; i < last; i++ {
		due := in.Due[i]
		waitUntil(w.start.Add(due))
		r := arrivalResult{Due: due, Ready: max(due, prevDone), Sent: time.Since(w.start), Updates: in.Burst}
		r.Failed = w.post(in.scheduled(i), true)
		r.Visible = time.Since(w.start)
		prevDone = r.Visible
		results = append(results, r)
	}
	return results
}

// drainChunk is the number of updates per request of a drain block.
const drainChunk = 64

// drainBlock posts one block back to back — wait:false requests of
// drainChunk updates, the last one the wait:true fence — and returns its
// catch-up throughput in updates per second: block size over first post →
// fence response, with the server free to coalesce and batch the backlog.
func (w *writer) drainBlock(ups []graph.Update) (upsPerSec float64) {
	begin, total := time.Now(), len(ups)
	for len(ups) > 0 {
		n := min(drainChunk, len(ups))
		w.post(ups[:n], n == len(ups))
		ups = ups[n:]
	}
	return float64(total) / time.Since(begin).Seconds()
}

// readResult is one reader request: due time and latency from it.
type readResult struct {
	Due     time.Duration
	Latency time.Duration
	Failed  bool
}

// reader issues the read schedule over its own connection until stop is set.
type reader struct {
	conn  *http.Client
	base  string
	ops   *opCounts
	start time.Time
	stop  atomic.Bool
	done  chan struct{}
	// results is owned by the reader goroutine until done is closed.
	results []readResult
}

func (r *reader) url(op readOp) string {
	switch op.Kind {
	case readTop:
		return r.base + "/v1/top/vertices?k=10"
	case readEdge:
		return r.base + "/v1/edges?u=" + strconv.Itoa(op.A) + "&v=" + strconv.Itoa(op.B)
	default:
		return r.base + "/v1/vertices/" + strconv.Itoa(op.A)
	}
}

func (r *reader) run(reads []readOp) {
	defer close(r.done)
	for _, op := range reads {
		waitUntil(r.start.Add(op.Due))
		if r.stop.Load() {
			return
		}
		r.ops.attempted.Add(1)
		res := readResult{Due: op.Due}
		resp, err := r.conn.Get(r.url(op))
		if err != nil {
			res.Failed = true
		} else {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse only
			resp.Body.Close()
			res.Failed = resp.StatusCode != http.StatusOK
		}
		res.Latency = time.Since(r.start) - op.Due
		if res.Failed {
			r.ops.failed.Add(1)
		}
		r.results = append(r.results, res)
	}
}

// readLatenciesMs returns the latencies of the successful reads due in
// [from, to). (Failed reads are counted in opCounts and fail the run.)
func readLatenciesMs(results []readResult, from, to time.Duration) []float64 {
	var lat []float64
	for _, r := range results {
		if r.Due >= from && r.Due < to && !r.Failed {
			lat = append(lat, ms(r.Latency))
		}
	}
	return lat
}

// canary times a fixed single-threaded spin loop. It runs before the daemons
// start; a drift between runs means the box, not the code, changed speed.
func canary() time.Duration {
	best := time.Duration(1<<63 - 1)
	for round := 0; round < 5; round++ {
		begin := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		canarySink = x
		if d := time.Since(begin); d < best {
			best = d
		}
	}
	return best
}

// canarySink keeps the compiler from removing the canary loop.
var canarySink uint64
