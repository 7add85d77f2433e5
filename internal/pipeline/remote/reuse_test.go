package remote

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// sumScore scores a dataset by every cell of its "x" column, so a worker
// that decoded other cells than the client sent answers another score.
func sumScore(d *dataset.Dataset) pipeline.ScoreResult {
	sum := 0.0
	for _, v := range d.NumericValues("x") {
		sum += v
	}
	return pipeline.ScoreResult{Score: sum, Attempts: 1}
}

// columnData builds a rows-row dataset whose cells identify it by id; all
// datasets of one row count encode to frames of the same size.
func columnData(id, rows int) *dataset.Dataset {
	xs := make([]float64, rows)
	for i := range xs {
		xs[i] = float64(id*rows + i)
	}
	return dataset.New().MustAddNumeric("x", xs)
}

// serveLogged serves sys on a loopback listener with w.Logf set, and
// returns the address and a stop function that returns once every
// connection the worker accepted has ended.
func serveLogged(t *testing.T, sys pipeline.FallibleSystem, logf func(string, ...any)) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := &Worker{System: sys, Logf: logf}
		w.Serve(ctx, ln) // returns ctx.Err() once stopped
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestHedgedFrameNotReusedWhileDispatched scores distinct datasets of one
// size back to back over two workers, one of which sleeps, with a 1 ms
// hedge: hedges win, and a dispatch to the sleeping worker often writes
// its frame after its evaluation has returned. A frame handed to the next
// evaluation while that dispatch still holds it would reach the worker
// torn or replaced (a "decoded to" fingerprint mismatch, a wrong score or
// a worker fault) and, under -race, race with the next encoding.
func TestHedgedFrameNotReusedWhileDispatched(t *testing.T) {
	var mu sync.Mutex
	var mismatches []string
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "decoded to") {
			mu.Lock()
			mismatches = append(mismatches, line)
			mu.Unlock()
		}
	}
	slow := &pipeline.TryFunc{SystemName: "sum", Try: func(ctx context.Context, d *dataset.Dataset) pipeline.ScoreResult {
		select {
		case <-time.After(3 * time.Millisecond):
		case <-ctx.Done():
		}
		return sumScore(d)
	}}
	fast := &pipeline.TryFunc{SystemName: "sum", Try: func(_ context.Context, d *dataset.Dataset) pipeline.ScoreResult {
		return sumScore(d)
	}}
	slowAddr, stopSlow := serveLogged(t, slow, logf)
	fastAddr, stopFast := serveLogged(t, fast, logf)
	fleet := NewFleet(Config{Addrs: []string{slowAddr, fastAddr}, HedgeAfter: time.Millisecond})
	for i := 0; i < 300; i++ {
		d := columnData(i, 16384)
		want := sumScore(d)
		if got := fleet.TryMalfunctionScore(context.Background(), d); got.Err != nil || got.Score != want.Score {
			t.Fatalf("dataset %d scored %+v over the fleet, %v locally", i, got, want.Score)
		}
	}
	st := fleet.FleetSnapshot()
	fleet.Close()
	stopSlow()
	stopFast()
	if st.Hedges == 0 {
		t.Fatal("no hedge fired: the test exercised no dispatch outliving its evaluation")
	}
	if st.WorkerFaults != 0 {
		t.Fatalf("%d worker faults: %+v", st.WorkerFaults, st)
	}
	if len(mismatches) > 0 {
		t.Fatalf("workers decoded frames other than the client sent: %q", mismatches)
	}
}

// frameSpy records the address of the first byte of every frame the
// client writes, so a test can see which buffer each request went out in.
type frameSpy struct {
	net.Conn
	mu     *sync.Mutex
	frames *[]*byte
}

func (c frameSpy) Write(p []byte) (int, error) {
	if len(p) > 0 {
		c.mu.Lock()
		*c.frames = append(*c.frames, &p[0])
		c.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestFleetReusesRequestFrames checks the client's free list: after the
// first evaluation, the next evaluation of a dataset of the same size goes
// out in the same frame, and encoding into a free frame allocates no new
// one.
func TestFleetReusesRequestFrames(t *testing.T) {
	var mu sync.Mutex
	var frames []*byte
	var dialer net.Dialer
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return frameSpy{Conn: conn, mu: &mu, frames: &frames}, nil
	}
	stub := &pipeline.TryFunc{SystemName: "stub", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
		return pipeline.ScoreResult{Score: 0.5, Attempts: 1}
	}}
	fleet := NewFleet(Config{Addrs: []string{startWorker(t, stub)}, Dial: dial})
	defer fleet.Close()
	for i := 0; i < 3; i++ {
		if r := fleet.TryMalfunctionScore(context.Background(), columnData(i, 4096)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	mu.Lock()
	sent := append([]*byte(nil), frames...)
	mu.Unlock()
	if len(sent) != 3 || sent[1] != sent[0] || sent[2] != sent[0] {
		t.Fatalf("three same-size evaluations went out in frames %v, want one reused frame", sent)
	}

	d := columnData(7, 4096)
	d.Fingerprint() // the engine has it cached before any evaluation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	size := 0
	for i := 0; i < 20; i++ {
		req, err := encodeRequest(d, fleet.takeFrame())
		if err != nil {
			t.Fatal(err)
		}
		size = len(req)
		fleet.putFrame(req)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= uint64(size) {
		t.Fatalf("20 encodings into a free frame allocated %d bytes; one frame is %d", n, size)
	}
}

// TestWorkerReusesPayloadBufferAcrossConnections serves one 4 MiB frame on
// each of two connections in turn: the first grows a payload buffer, the
// second reads into the one the first left and allocates almost nothing.
func TestWorkerReusesPayloadBufferAcrossConnections(t *testing.T) {
	const trailing = 4 << 20
	// A sound request header over an empty table with trailing bytes: the
	// worker reads the whole frame, and the table is refused without
	// decoding anything large.
	frame := newFrame(requestHeaderSize + trailing)
	frame = append(frame, protocolVersion, msgScore)
	frame = binary.BigEndian.AppendUint64(frame, 1)
	frame = append(frame, make([]byte, 6+trailing)...)
	frame = sealFrame(frame)

	w := &Worker{System: &valueScorer{}}
	exchange := func() uint64 {
		client, server := net.Pipe()
		done := make(chan struct{})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		go func() {
			defer close(done)
			w.serveConn(context.Background(), server)
		}()
		if _, err := client.Write(frame); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(client, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := decodeResponse(payload); err != nil || res.Err == nil || res.Transient {
			t.Fatalf("response = %+v, %v; want a permanent malformed-table failure", res, err)
		}
		client.Close()
		<-done
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if first := exchange(); first < trailing {
		t.Fatalf("first connection allocated %d bytes, less than its %d-byte frame", first, len(frame))
	}
	if second := exchange(); second > 256<<10 {
		t.Fatalf("second connection allocated %d bytes reading a %d-byte frame", second, len(frame))
	}
}
