package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Tracing of the in-process passes. The spans are recorded from bench/'s own
// files, around the calls into each layer's public functions; nothing inside
// the product records them. Spans stay in memory and are written out when
// the run ends.

// span is one timed call. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an arrival's root span
	Trace  int    `json:"trace"`  // one identifier per arrival
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the memory of one traced run; spans past it are counted
// and dropped.
const maxSpans = 2_000_000

// recorder collects spans. begin and end may be called from several
// goroutines (the router fans out to its shards concurrently).
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	on      bool
	pass    string
	trace   int
	spans   []span
	dropped int
	// current is the span new store spans are parented under: the decorated
	// store is called from inside Engine.ApplyBatch and cannot be handed one.
	current int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// arrival starts the next trace and returns its root span.
func (r *recorder) arrival(name string) int {
	r.mu.Lock()
	r.trace++
	r.mu.Unlock()
	return r.begin(name, 0)
}

// begin opens a span under parent and returns its identifier, or 0 when the
// recorder is off (end ignores 0).
func (r *recorder) begin(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return 0
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Pass: r.pass, Name: name,
		Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// setPass labels the spans that follow; the empty pass switches recording
// off.
func (r *recorder) setPass(pass string) {
	r.mu.Lock()
	r.pass, r.on = pass, pass != ""
	r.mu.Unlock()
}

// durationsUs returns the durations, in microseconds, of the spans of one
// pass with the given name.
func (r *recorder) durationsUs(pass, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Pass == pass && s.Name == name {
			out = append(out, us(s.duration()))
		}
	}
	return out
}

// selfTimes returns, per span identifier, the span's duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (two shards applying in parallel) and are clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self times per span name over one pass, and returns the
// summed duration of the pass's root spans alongside.
func selfByName(spans []span, pass string) (byName map[string]time.Duration, roots time.Duration) {
	self := selfTimes(spans)
	byName = make(map[string]time.Duration)
	for _, s := range spans {
		if s.Pass != pass {
			continue
		}
		byName[s.Name] += self[s.ID]
		if s.Parent == 0 {
			roots += s.duration()
		}
	}
	return byName, roots
}

// traceFile is the layout of bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the recorded spans to <root>/bench/out/<workload>.trace.json.
func (r *recorder) writeTrace(root, workload string, seed int64) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Dropped: r.dropped, Spans: r.spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
