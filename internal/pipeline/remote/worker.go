package remote

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/pipeline"
)

// Worker serves score requests for one oracle over a listener: the server
// half of the remote transport. It wraps any FallibleSystem — the scorer's
// own failure classification travels back to the client intact.
type Worker struct {
	// System is the wrapped error-aware scorer (required).
	System pipeline.FallibleSystem
	// Logf, when set, receives one line (e.g. log.Printf) for each request
	// that does not decode, naming the peer; each table that does not
	// decode or does not match its fingerprint; each reply that cannot be
	// written; and each scorer panic. A request served without such a
	// fault logs nothing. Nil silences the worker.
	Logf func(format string, args ...any)

	// idle is the payload buffer of a closed connection, kept for the
	// next one: the largest such buffer, so at most maxFrameSize bytes,
	// since readFrame never grows a buffer past the frame it reads.
	mu   sync.Mutex
	idle []byte
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Serve accepts connections until ctx is cancelled or the listener fails,
// handling each connection on its own goroutine. It closes the listener on
// cancellation and waits for in-flight connections before returning
// ctx.Err().
func (w *Worker) Serve(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.serveConn(ctx, conn)
		}()
	}
}

// serveConn answers score requests on one connection until the peer hangs
// up, a frame is malformed, or ctx is cancelled (which unblocks any
// in-flight read by expiring the connection's deadline).
func (w *Worker) serveConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	// One payload buffer per connection, handed on to the next connection
	// when this one ends: decodeTable copies every cell out of it, so the
	// next request may overwrite it.
	payload := w.takeBuffer()
	defer func() { w.putBuffer(payload) }()
	for {
		var err error
		if payload, err = readFrame(conn, payload); err != nil {
			return // peer closed, deadline expired, or garbage framing
		}
		fp, table, err := decodeRequest(payload)
		if err != nil {
			w.logf("remote worker: %s: %v", conn.RemoteAddr(), err)
			return
		}
		res := w.score(ctx, fp, table)
		if _, err := conn.Write(encodeResponse(res)); err != nil {
			w.logf("remote worker: %s: reply for %016x: %v", conn.RemoteAddr(), fp, err)
			return
		}
	}
}

// takeBuffer returns the idle payload buffer, or nil when there is none.
func (w *Worker) takeBuffer() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := w.idle
	w.idle = nil
	return buf
}

// putBuffer keeps a closed connection's payload buffer if it is larger
// than the idle one.
func (w *Worker) putBuffer(buf []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cap(buf) > cap(w.idle) {
		w.idle = buf[:0]
	}
}

// score decodes the table, checks it against the client's fingerprint and
// evaluates it. A table that does not decode, or decodes to a dataset with
// another fingerprint, is a permanent failure — retrying the same bytes
// cannot help, and scoring it would score a dataset the client never sent.
// A scorer panic is likewise answered as a permanent failure instead of
// killing the worker process: one poisoned dataset must not take the whole
// fleet member down.
func (w *Worker) score(ctx context.Context, fp uint64, table []byte) (res pipeline.ScoreResult) {
	defer func() {
		if r := recover(); r != nil {
			w.logf("remote worker: scorer panic: %v", r)
			res = pipeline.ScoreResult{Score: math.NaN(), Err: fmt.Errorf("remote worker: scorer panic: %v", r)}
		}
	}()
	d, err := decodeTable(table)
	if err != nil {
		w.logf("remote worker: request %016x: %v", fp, err)
		return pipeline.ScoreResult{Score: math.NaN(), Err: err}
	}
	if got := d.Fingerprint(); got != fp {
		w.logf("remote worker: request %016x decoded to %016x", fp, got)
		return pipeline.ScoreResult{Score: math.NaN(), Err: fmt.Errorf("%w: cells fingerprint %016x, request claims %016x", errTable, got, fp)}
	}
	return w.System.TryMalfunctionScore(ctx, d)
}
