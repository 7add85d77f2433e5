package remote

import (
	"context"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// DialFunc opens a connection; the fleet uses net.Dialer.DialContext by
// default. Tests and chaos suites substitute fault-injecting dialers.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// payloadKey carries a pre-encoded request frame through the per-worker
// wrapper stack, so one evaluation hedged or retried across workers
// serializes the dataset exactly once.
type payloadKey struct{}

func withPayload(ctx context.Context, req []byte) context.Context {
	return context.WithValue(ctx, payloadKey{}, req)
}

func payloadFrom(ctx context.Context) ([]byte, bool) {
	req, ok := ctx.Value(payloadKey{}).([]byte)
	return req, ok
}

// transport is the client side of one worker connection: a persistent,
// serialized request/response channel that redials after any failure. All
// transport-level failures are classified transient — the worker may be
// fine and the network flaky, and the per-worker Retry decides how hard to
// insist.
type transport struct {
	addr        string
	dial        DialFunc
	dialTimeout time.Duration

	// reqMu serializes round trips (one in-flight request per connection);
	// connMu guards the connection pointer and closed flag separately, so
	// Close can interrupt an in-flight round trip instead of queueing
	// behind it.
	reqMu  sync.Mutex
	connMu sync.Mutex
	conn   net.Conn
	closed bool
}

func newTransport(addr string, dial DialFunc, dialTimeout time.Duration) *transport {
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	return &transport{addr: addr, dial: dial, dialTimeout: dialTimeout}
}

// Name implements FallibleSystem.
func (t *transport) Name() string { return "remote(" + t.addr + ")" }

// TryMalfunctionScore implements FallibleSystem: one framed round trip,
// holding the connection for its duration. Cancellation and deadlines
// propagate by expiring the connection deadline, which unblocks any
// in-flight read or write.
func (t *transport) TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) pipeline.ScoreResult {
	if err := ctx.Err(); err != nil {
		return transientFailure(0, "not dispatched", pipeline.ContextFailure(ctx))
	}
	req, ok := payloadFrom(ctx)
	if !ok {
		var err error
		if req, err = encodeRequest(d, nil); err != nil {
			return pipeline.ScoreResult{Score: math.NaN(), Err: err}
		}
	}

	t.reqMu.Lock()
	defer t.reqMu.Unlock()
	conn, err := t.ensure(ctx)
	if err != nil {
		return transientFailure(0, "dial "+t.addr, err)
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	} else {
		conn.SetDeadline(time.Time{})
	}

	// The lock is held across the framed I/O on purpose: the protocol is one
	// request/response pair per connection at a time, so round trips must be
	// serialized, and the AfterFunc above expires the connection deadline on
	// cancellation, which unblocks the write/read from under the lock.
	//lint:ignore lockorder round trips on the persistent conn must serialize, and the ctx AfterFunc deadline interrupts the blocked I/O
	if _, err := conn.Write(req); err != nil {
		t.drop(conn)
		return transientFailure(0, "send to "+t.addr, err)
	}
	payload, err := readFrame(conn, nil)
	if err != nil {
		t.drop(conn)
		return transientFailure(1, "receive from "+t.addr, err)
	}
	res, err := decodeResponse(payload)
	if err != nil {
		t.drop(conn)
		return transientFailure(1, "decode from "+t.addr, err)
	}
	return res
}

// ensure returns the live connection, dialing if needed. Callers hold
// t.reqMu.
func (t *transport) ensure(ctx context.Context) (net.Conn, error) {
	t.connMu.Lock()
	if t.closed {
		t.connMu.Unlock()
		return nil, net.ErrClosed
	}
	if t.conn != nil {
		conn := t.conn
		t.connMu.Unlock()
		return conn, nil
	}
	t.connMu.Unlock()

	dctx, cancel := context.WithTimeout(ctx, t.dialTimeout)
	defer cancel()
	conn, err := t.dial(dctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if t.closed {
		conn.Close()
		return nil, net.ErrClosed
	}
	t.conn = conn
	return conn, nil
}

// drop discards a failed connection so the next call redials.
func (t *transport) drop(conn net.Conn) {
	conn.Close()
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if t.conn == conn {
		t.conn = nil
	}
}

// Close tears down the persistent connection, interrupting any in-flight
// round trip (its read fails once the connection closes under it).
func (t *transport) Close() {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	t.closed = true
	if t.conn != nil {
		t.conn.SetDeadline(time.Now())
		t.conn.Close()
		t.conn = nil
	}
}

// transientFailure classifies a transport-level failure. attempts is 0 when
// the request provably never reached the worker (dial or send failure) and
// 1 once a response was owed.
func transientFailure(attempts int, stage string, err error) pipeline.ScoreResult {
	return pipeline.ScoreResult{
		Score:     math.NaN(),
		Err:       fmtErr(stage, err),
		Transient: true,
		Attempts:  attempts,
	}
}

func fmtErr(stage string, err error) error {
	return &transportError{stage: stage, err: err}
}

// transportError wraps a transport failure as transient while preserving
// the underlying error for errors.Is/As.
type transportError struct {
	stage string
	err   error
}

func (e *transportError) Error() string {
	return "remote: " + e.stage + ": " + e.err.Error() + ": " + pipeline.ErrTransient.Error()
}

func (e *transportError) Unwrap() []error { return []error{e.err, pipeline.ErrTransient} }
