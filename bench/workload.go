package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"streambc/internal/gen"
	"streambc/internal/graph"
)

// Workload generator: seed → graph.txt + binary stream + due-time schedule
// files. The daemons receive only graph.txt (through -graph) and HTTP
// requests; the harness reads the stream and schedule files back, so what is
// sent is exactly what is on disk.
//
// The seed draws the update stream (which edges churn, in which order) and
// the reader's requests. The initial graph and the writer's arrival times
// are one fixed draw from their models, the same for every seed: they are
// part of a workload's definition, like its rates. Calibration showed why —
// between graph instances the per-update cost differs by a tenth, and between
// Poisson realisations the queueing does, which is more than the bounds this
// benchmark gates on; between update streams on one graph and one schedule
// the metrics repeat within a few percent (README.md, "Calibration").

// inputParams are the generator's inputs besides the seed and the horizon.
// Workloads with equal params (mo_single and shard2_single) get byte-identical
// files.
type inputParams struct {
	Graph        graphKind
	N            int
	Burst        int
	ArrivalRate  float64
	ReadRate     float64
	DrainUpdates int
}

// readKind is one of the reader's three request shapes.
type readKind uint8

const (
	readVertex readKind = iota // GET /v1/vertices/{a}
	readTop                    // GET /v1/top/vertices?k=10
	readEdge                   // GET /v1/edges?u={a}&v={b}
)

type readOp struct {
	Due  time.Duration
	Kind readKind
	A, B int
}

// inputs is one generated workload instance, as loaded back from its files.
type inputs struct {
	GraphPath string
	Graph     *graph.Graph // the harness's own copy of the initial graph
	Burst     int
	// Due[i] is arrival i's due time as an offset from the schedule's start.
	// The last entry is a sentinel: it is never sent, it only closes the last
	// real arrival's missed-update window.
	Due []time.Duration
	// Updates holds Burst updates per scheduled arrival (sentinel excluded),
	// followed by the drain blocks.
	Updates []graph.Update
	Reads   []readOp
}

// arrivals returns the number of arrivals that are sent.
func (in *inputs) arrivals() int { return len(in.Due) - 1 }

// firstDueAt returns the first arrival due at or after d.
func (in *inputs) firstDueAt(d time.Duration) int {
	i := 0
	for i < in.arrivals() && in.Due[i] < d {
		i++
	}
	return i
}

// scheduled returns the updates of arrival i.
func (in *inputs) scheduled(i int) []graph.Update {
	return in.Updates[i*in.Burst : (i+1)*in.Burst]
}

// drainUpdates returns the updates after the scheduled ones.
func (in *inputs) drainUpdates() []graph.Update {
	return in.Updates[in.arrivals()*in.Burst:]
}

// modelSeed draws every workload's initial graph and arrival schedule.
const modelSeed = 20160516

const (
	graphFile    = "graph.txt"
	streamFile   = "stream.bin"
	scheduleFile = "schedule.bin"
	readsFile    = "reads.bin"
	// readTail extends the reader's schedule past the writer's, so the reader
	// keeps its rate through the drain phase.
	readTail = 20 * time.Second
)

// poolHalf edges of the initial graph and as many absent pairs make up the
// churn pool; every update toggles one pool member. The pool is at least
// twice inverseLag, so at least half of it is always out of its cool-down.
func poolHalf(k graphKind) int {
	if k == graphHub {
		return 2048
	}
	return 1024
}

// buildGraph generates the initial graph of a workload.
func buildGraph(p inputParams, seed int64) *graph.Graph {
	switch p.Graph {
	case graphHub:
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(p.N)
		for v := 1; v < p.N; v++ {
			mustAddEdge(g, 0, v)
		}
		for added := 0; added < 4*p.N; {
			u, v := 1+rng.Intn(p.N-1), 1+rng.Intn(p.N-1)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			mustAddEdge(g, u, v)
			added++
		}
		return g
	default:
		return gen.HolmeKim(p.N, 5, 0.5, seed)
	}
}

func mustAddEdge(g *graph.Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err) // generator bug: endpoints are in range and distinct
	}
}

// churnStream generates count updates of stationary churn over g: every
// update toggles one member of a fixed pool holding poolHalf edges of g and
// as many absent pairs, so additions and removals are each half of the
// stream in expectation, the edge count is mean-reverting around its initial
// value, and the graph ensemble (hence the per-update cost) does not drift.
// A pool member is never touched twice within inverseLag updates, so an
// update's inverse is never close enough for the server's coalescer to
// cancel it. On the hub graph the pool avoids vertex 0, keeping diameter 2.
func churnStream(g *graph.Graph, p inputParams, count int, seed int64) []graph.Update {
	rng := rand.New(rand.NewSource(seed))
	lo := 0
	if p.Graph == graphHub {
		lo = 1
	}
	type member struct {
		e       graph.Edge
		present bool
		last    int // index of the last update that touched it
	}
	var pool []member
	inPool := make(map[graph.Edge]bool)
	var candidates []graph.Edge
	for _, e := range g.Edges() {
		if e.U >= lo && e.V >= lo {
			candidates = append(candidates, e)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	half := min(poolHalf(p.Graph), len(candidates)/2)
	for _, e := range candidates[:half] {
		pool = append(pool, member{e: e.Canonical(), present: true, last: -inverseLag})
		inPool[e.Canonical()] = true
	}
	for len(pool) < 2*half {
		u, v := lo+rng.Intn(p.N-lo), lo+rng.Intn(p.N-lo)
		e := graph.Edge{U: u, V: v}.Canonical()
		if u == v || g.HasEdge(u, v) || inPool[e] {
			continue
		}
		pool = append(pool, member{e: e, last: -inverseLag})
		inPool[e] = true
	}
	out := make([]graph.Update, 0, count)
	for i := 0; i < count; i++ {
		var m *member
		for {
			m = &pool[rng.Intn(len(pool))]
			if i-m.last >= inverseLag {
				break
			}
		}
		if m.present {
			out = append(out, graph.Removal(m.e.U, m.e.V))
		} else {
			out = append(out, graph.Addition(m.e.U, m.e.V))
		}
		m.present = !m.present
		m.last = i
	}
	return out
}

// poissonSchedule returns exponential-gap due times at rate per second until
// the first one at or beyond horizon (which is included).
func poissonSchedule(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		due = append(due, d)
		if d >= horizon {
			return due
		}
	}
}

// generateInputs writes the input files of one workload instance into dir.
// horizon is the length of the scheduled part (warm plus steady).
func generateInputs(dir string, p inputParams, seed int64, horizon time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := buildGraph(p, modelSeed)
	if err := writeFile(filepath.Join(dir, graphFile), func(w *bufio.Writer) error {
		return graph.WriteEdgeList(w, g)
	}); err != nil {
		return err
	}

	due := poissonSchedule(rand.New(rand.NewSource(modelSeed^0x5c4ed)), p.ArrivalRate, horizon)
	if err := writeFile(filepath.Join(dir, scheduleFile), func(w *bufio.Writer) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(p.Burst))
		w.Write(buf[:])
		for _, d := range due {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			w.Write(buf[:])
		}
		return nil
	}); err != nil {
		return err
	}

	updates := churnStream(g, p, (len(due)-1)*p.Burst+p.DrainUpdates, seed^0x57eea)
	if err := writeFile(filepath.Join(dir, streamFile), func(w *bufio.Writer) error {
		var buf []byte
		for _, u := range updates {
			buf = graph.AppendUpdate(buf[:0], u)
			w.Write(buf)
		}
		return nil
	}); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed ^ 0x4ead5))
	edges := g.Edges()
	return writeFile(filepath.Join(dir, readsFile), func(w *bufio.Writer) error {
		var buf [17]byte
		for _, d := range poissonSchedule(rng, p.ReadRate, horizon+readTail) {
			op := readOp{Due: d}
			switch x := rng.Float64(); {
			case x < 0.80:
				op.Kind, op.A = readVertex, rng.Intn(p.N)
			case x < 0.95:
				op.Kind = readTop
			default:
				e := edges[rng.Intn(len(edges))]
				op.Kind, op.A, op.B = readEdge, e.U, e.V
			}
			binary.LittleEndian.PutUint64(buf[0:], uint64(op.Due))
			buf[8] = byte(op.Kind)
			binary.LittleEndian.PutUint32(buf[9:], uint32(op.A))
			binary.LittleEndian.PutUint32(buf[13:], uint32(op.B))
			w.Write(buf[:])
		}
		return nil
	})
}

// writeFile creates path, runs fill on a buffered writer over it and reports
// the first error of fill, the flush or the close. (bufio.Writer is sticky:
// a failed Write surfaces at Flush.)
func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadInputs reads a generated workload instance back from dir.
func loadInputs(dir string) (*inputs, error) {
	in := &inputs{GraphPath: filepath.Join(dir, graphFile)}
	var err error
	if in.Graph, err = graph.LoadEdgeListFile(in.GraphPath, false); err != nil {
		return nil, err
	}

	sched, err := os.ReadFile(filepath.Join(dir, scheduleFile))
	if err != nil {
		return nil, err
	}
	if len(sched) < 24 || len(sched)%8 != 0 {
		return nil, fmt.Errorf("%s: %d bytes is not a schedule", scheduleFile, len(sched))
	}
	in.Burst = int(binary.LittleEndian.Uint64(sched))
	for off := 8; off < len(sched); off += 8 {
		in.Due = append(in.Due, time.Duration(binary.LittleEndian.Uint64(sched[off:])))
	}

	stream, err := os.ReadFile(filepath.Join(dir, streamFile))
	if err != nil {
		return nil, err
	}
	for len(stream) > 0 {
		u, k, err := graph.DecodeUpdate(stream)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", streamFile, err)
		}
		in.Updates = append(in.Updates, u)
		stream = stream[k:]
	}
	if in.Burst < 1 || len(in.Updates) < in.arrivals()*in.Burst {
		return nil, fmt.Errorf("%s holds %d updates, schedule needs %d×%d",
			streamFile, len(in.Updates), in.arrivals(), in.Burst)
	}

	reads, err := os.ReadFile(filepath.Join(dir, readsFile))
	if err != nil {
		return nil, err
	}
	if len(reads)%17 != 0 {
		return nil, fmt.Errorf("%s: %d bytes is not a read schedule", readsFile, len(reads))
	}
	for off := 0; off < len(reads); off += 17 {
		in.Reads = append(in.Reads, readOp{
			Due:  time.Duration(binary.LittleEndian.Uint64(reads[off:])),
			Kind: readKind(reads[off+8]),
			A:    int(binary.LittleEndian.Uint32(reads[off+9:])),
			B:    int(binary.LittleEndian.Uint32(reads[off+13:])),
		})
	}
	return in, nil
}
