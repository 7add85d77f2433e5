package main

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/pipeline/remote"
	"repro/internal/scorestore"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the run started; Parent is 0 for a cell's root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Cell     string `json:"cell"`
	Rep      int    `json:"rep"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps the spans and per-rep counters of a traced run in memory.
// The cell runner opens phase spans from its own goroutine; the wrappers
// below record leaf spans from engine and fleet goroutines, so every field
// is guarded by mu. A nil or switched-off recorder records nothing.
type recorder struct {
	epoch time.Time

	mu       sync.Mutex
	on       bool
	workload string
	cell     string
	rep      int
	parent   int
	spans    []span
	counts   map[repKey]map[string]float64
}

// repKey identifies one rep of one workload.
type repKey struct {
	workload string
	rep      int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: make(map[repKey]map[string]float64)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// active reports whether calls are being recorded right now.
func (r *recorder) active() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

// startRep switches recording on or off for one rep of a workload.
func (r *recorder) startRep(workload string, rep int, on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on, r.workload, r.rep, r.cell, r.parent = on, workload, rep, "", 0
}

func (r *recorder) setCell(cell string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cell, r.parent = cell, 0
}

// do runs f inside a span named name, nested under the innermost open
// span; spans recorded while f runs become its children.
func (r *recorder) do(name string, f func()) {
	if !r.active() {
		f()
		return
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.parent, Name: name, Start: r.now(),
		Workload: r.workload, Cell: r.cell, Rep: r.rep})
	outer := r.parent
	r.parent = id
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.spans[id-1].End = r.now()
		r.parent = outer
		r.mu.Unlock()
	}()
	f()
}

// count adds v to a per-rep counter.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return
	}
	k := repKey{r.workload, r.rep}
	m := r.counts[k]
	if m == nil {
		m = make(map[string]float64)
		r.counts[k] = m
	}
	m[name] += v
}

// timed runs f and, when tracing is on, records it as a leaf span under
// the innermost open span.
func (r *recorder) timed(name string, f func()) {
	if !r.active() {
		f()
		return
	}
	start := r.now()
	f()
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.on {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: r.parent, Name: name, Start: start, End: end,
			Workload: r.workload, Cell: r.cell, Rep: r.rep})
	}
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// meter wraps the system under debug at the pipeline.ContextSystem
// boundary. It counts every raw oracle call, traced or not, and records
// each call's interval when tracing is on. On fig7-fleet it sits behind the
// workers, so it sees the worker-side scoring time only.
type meter struct {
	sys   pipeline.ContextSystem
	rec   *recorder
	calls atomic.Int64
}

func (m *meter) Name() string { return m.sys.Name() }

func (m *meter) MalfunctionScore(ctx context.Context, d *dataset.Dataset) (s float64) {
	m.calls.Add(1)
	m.rec.timed("workload.score", func() { s = m.sys.MalfunctionScore(ctx, d) })
	return s
}

// timedFleet records each evaluation the engine sends to the fleet client.
// Embedding keeps the fleet's FleetReporter and TripCounter capabilities
// visible to the engine.
type timedFleet struct {
	*remote.FleetSystem
	rec *recorder
}

func (f timedFleet) TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) (r pipeline.ScoreResult) {
	f.rec.timed("remote.eval", func() { r = f.FleetSystem.TryMalfunctionScore(ctx, d) })
	return r
}

// timedStore records the engine's calls into the persistent score store.
type timedStore struct {
	*scorestore.Store
	rec *recorder
}

func (s timedStore) Load(fp uint64) (score float64, ok bool) {
	s.rec.timed("scorestore.Load", func() { score, ok = s.Store.Load(fp) })
	return score, ok
}

func (s timedStore) Save(fp uint64, score float64, deterministic bool) {
	s.rec.timed("scorestore.Save", func() { s.Store.Save(fp, score, deterministic) })
}

// countingConn counts the bytes a fleet client moves over one connection.
type countingConn struct {
	net.Conn
	rec *recorder
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rec.count("remote.recv_mb", float64(n)/1e6)
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.rec.count("remote.sent_mb", float64(n)/1e6)
	return n, err
}

// dialer returns a remote.DialFunc whose connections count their bytes.
func (r *recorder) dialer() remote.DialFunc {
	var d net.Dialer
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, rec: r}, nil
	}
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	start, end := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > end {
			total += end - start
			start, end = iv[0], iv[1]
		} else if iv[1] > end {
			end = iv[1]
		}
	}
	return total + end - start
}
