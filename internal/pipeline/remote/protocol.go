// Package remote distributes oracle evaluations over a fleet of TCP
// workers. A Worker wraps any pipeline.FallibleSystem behind a listener; a
// FleetSystem is the client half: it implements pipeline.FallibleSystem by
// fanning evaluations across N workers with per-worker retry/breaker
// stacks, health tracking, hedged dispatch of stragglers, and graceful
// degradation to a local fallback.
//
// # Wire protocol
//
// The transport is length-prefixed binary frames over TCP, one
// request/response exchange at a time per connection (no multiplexing —
// the fleet opens one connection per worker and serializes on it):
//
//	frame    := length(uint32 BE) payload
//	request  := version(1) msgScore(1) fingerprint(uint64 BE) table
//	table    := rows(uint32 BE) ncols(uint16 BE) column*
//	column   := kind(1) nameLen(uint16 BE) name nullBitmap cells
//	cells    := rows × float64 bits (uint64 BE)                 numeric
//	          | rows × (len(uvarint) bytes)                     categorical, text
//	response := version(1) status(1) scoreBits(uint64 BE) attempts(uint32 BE) errmsg...
//
// The table is the dataset's columnar storage written out as it is: column
// kinds travel natively, numeric cells as their exact bit patterns, string
// cells as raw bytes, and every cell's NULL bit in a bitmap of ceil(rows/8)
// bytes (bit i&7 of byte i>>3 set = NULL). Cells under a NULL bit travel
// too, so the worker rebuilds the client's columns cell for cell (at the
// default chunk size: the fingerprint does not depend on the chunk layout).
// Nothing is formatted or parsed, and nothing is lost: a string that reads
// "NA" stays a string, a "\r\n" inside a cell stays two bytes.
//
// The request carries the client's fingerprint of the dataset, and the
// worker recomputes it over the decoded cells before scoring. A table that
// does not decode, or decodes to a different dataset, is answered with a
// permanent failure — the same bytes would fail the same way on a retry —
// so a codec bug or version skew can never be scored as if it were the
// client's dataset. The fingerprint also lets fault injection and
// worker-side logging key on dataset identity without re-hashing.
//
// Decoding is bounded by the frame: every length is checked against the
// bytes present before anything is allocated, and a frame is at most
// maxFrameSize bytes.
//
// Status codes classify the outcome exactly like pipeline.ScoreResult:
// statusScore and statusDeterministic carry trustworthy scores;
// statusTransient and statusPermanent carry an error message and no score.
// Transport-level failures (dial errors, resets, deadline expiry) never
// reach the wire — the client classifies them as transient locally.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

const (
	protocolVersion = 2
	msgScore        = 1

	// maxFrameSize bounds a frame payload so a corrupt or hostile length
	// prefix cannot force an arbitrary allocation.
	maxFrameSize = 64 << 20

	// requestHeaderSize covers version, message, fingerprint and the table
	// header (rows, ncols).
	requestHeaderSize = 2 + 8 + 4 + 2

	statusScore         = 0
	statusDeterministic = 1
	statusTransient     = 2
	statusPermanent     = 3
)

// errProtocol marks a malformed frame; connections that produce one are
// dropped rather than resynchronized.
var errProtocol = errors.New("remote: protocol error")

// errTable marks a request whose header is sound but whose table does not
// decode; the worker answers it with a permanent failure.
var errTable = errors.New("remote: malformed table")

// newFrame returns an empty frame buffer with room for the length prefix
// and the given payload capacity.
func newFrame(payloadCap int) []byte { return make([]byte, 4, 4+payloadCap) }

// sealFrame writes the payload length into the frame's prefix. Senders
// write the sealed frame with a single Write, so network-level fault
// injection observes whole frames.
func sealFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// readFrame receives one length-prefixed payload into buf's storage,
// which it grows only as bytes arrive: capacity at most doubles what has
// been received, plus one 64 KiB step, and never exceeds the frame, so a
// length prefix alone cannot force a large allocation and a buffer is
// never larger than the largest frame it has read. The payload aliases
// the returned buffer, which the caller may pass to the next readFrame
// once it is done with the payload; nil starts a fresh one.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	const step = 64 << 10
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrameSize {
		return buf[:0], fmt.Errorf("%w: frame of %d bytes exceeds limit", errProtocol, n)
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, 2*len(buf)+step))
			copy(grown, buf)
			buf = grown
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return buf[:0], err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// encodeRequest builds a sealed score-request frame: header, fingerprint
// and the dataset's table. The frame is a pure function of the dataset, so
// the fleet encodes it once per evaluation and every retried or hedged
// dispatch reuses the bytes. It is written into frame's storage when that
// holds it, and into a new buffer of exactly its size otherwise; nil
// always allocates.
func encodeRequest(d *dataset.Dataset, frame []byte) ([]byte, error) {
	rows, cols := d.NumRows(), d.Columns()
	if len(cols) > math.MaxUint16 || uint64(rows) > math.MaxUint32 {
		return nil, fmt.Errorf("remote: dataset of %d columns × %d rows does not fit a frame", len(cols), rows)
	}
	bitmap := (rows + 7) / 8
	size := requestHeaderSize
	for _, c := range cols {
		if len(c.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("remote: column name of %d bytes does not fit a frame", len(c.Name))
		}
		size += 3 + len(c.Name) + bitmap
		if c.Kind == dataset.Numeric {
			size += 8 * rows
			continue
		}
		for i := 0; i < c.NumChunks(); i++ {
			for _, s := range c.Chunk(i).Strs {
				size += uvarintLen(len(s)) + len(s)
			}
		}
	}
	if size > maxFrameSize {
		return nil, fmt.Errorf("remote: dataset needs a %d-byte frame, over the %d-byte limit", size, maxFrameSize)
	}

	if cap(frame) < 4+size {
		frame = newFrame(size)
	}
	buf := append(frame[:4], protocolVersion, msgScore)
	buf = binary.BigEndian.AppendUint64(buf, d.Fingerprint())
	buf = binary.BigEndian.AppendUint32(buf, uint32(rows))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(cols)))
	for _, c := range cols {
		buf = append(buf, byte(c.Kind))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, make([]byte, bitmap)...)
		mask := buf[len(buf)-bitmap:]
		for i := 0; i < c.NumChunks(); i++ {
			v := c.Chunk(i)
			for j, null := range v.Null {
				if null {
					r := v.Start + j
					mask[r>>3] |= 1 << (r & 7)
				}
			}
		}
		for i := 0; i < c.NumChunks(); i++ {
			v := c.Chunk(i)
			if c.Kind == dataset.Numeric {
				for _, x := range v.Nums {
					buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
				}
				continue
			}
			for _, s := range v.Strs {
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
		}
	}
	return sealFrame(buf), nil
}

// uvarintLen is the encoded size of n as a uvarint.
func uvarintLen(n int) int {
	size := 1
	for ; n >= 0x80; n >>= 7 {
		size++
	}
	return size
}

// decodeRequest checks a score-request payload's header and splits it into
// the client's fingerprint and the undecoded table. A bad header is a
// protocol error: the peer does not speak this version.
func decodeRequest(payload []byte) (fp uint64, table []byte, err error) {
	if len(payload) < 10 || payload[0] != protocolVersion || payload[1] != msgScore {
		return 0, nil, fmt.Errorf("%w: bad score request header", errProtocol)
	}
	return binary.BigEndian.Uint64(payload[2:]), payload[10:], nil
}

// tableReader consumes a table front to back; the first short read sticks
// as its error, and every later read returns nothing.
type tableReader struct {
	b   []byte
	err error
}

func (r *tableReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("%w: truncated", errTable)
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *tableReader) uint16() int {
	if b := r.bytes(2); b != nil {
		return int(binary.BigEndian.Uint16(b))
	}
	return 0
}

func (r *tableReader) uint32() int {
	if b := r.bytes(4); b != nil {
		return int(binary.BigEndian.Uint32(b))
	}
	return 0
}

// decodeTable rebuilds the dataset a table describes. Every length is
// checked against the bytes present before the cells it covers are
// allocated: each column's NULL bitmap bounds the row count.
func decodeTable(table []byte) (*dataset.Dataset, error) {
	r := &tableReader{b: table}
	rows, ncols := r.uint32(), r.uint16()
	if r.err != nil {
		return nil, r.err
	}
	if ncols == 0 && rows != 0 {
		return nil, fmt.Errorf("%w: %d rows without columns", errTable, rows)
	}
	d := dataset.New()
	for c := 0; c < ncols; c++ {
		var kind dataset.Kind
		if b := r.bytes(1); b != nil {
			kind = dataset.Kind(b[0])
		}
		name := string(r.bytes(r.uint16()))
		mask := r.bytes((rows + 7) / 8)
		if r.err != nil {
			return nil, r.err
		}
		var err error
		switch kind {
		case dataset.Numeric:
			raw := r.bytes(8 * rows)
			if r.err != nil {
				return nil, r.err
			}
			nums := make([]float64, rows)
			for i := range nums {
				nums[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
			}
			err = d.AddNumericColumn(name, nums, expandNulls(mask, rows))
		case dataset.Categorical, dataset.Text:
			strs, serr := decodeStrings(r, rows)
			if serr != nil {
				return nil, serr
			}
			if kind == dataset.Categorical {
				err = d.AddCategoricalColumn(name, strs, expandNulls(mask, rows))
			} else {
				err = d.AddTextColumn(name, strs, expandNulls(mask, rows))
			}
		default:
			return nil, fmt.Errorf("%w: column %q has unknown kind %d", errTable, name, kind)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", errTable, err)
		}
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errTable, len(r.b))
	}
	return d, nil
}

// decodeStrings reads rows length-prefixed strings. A first pass checks
// every length against the bytes present; the cells then share one string
// allocation, sliced at the same offsets.
func decodeStrings(r *tableReader, rows int) ([]string, error) {
	src := r.b
	n := 0
	for i := 0; i < rows; i++ {
		l, k := binary.Uvarint(src[n:])
		if k <= 0 || l > uint64(len(src)-n-k) {
			return nil, fmt.Errorf("%w: string cell %d truncated", errTable, i)
		}
		n += k + int(l)
	}
	blob := string(r.bytes(n))
	strs := make([]string, rows)
	off := 0
	for i := range strs {
		l, k := binary.Uvarint(src[off:])
		off += k
		strs[i] = blob[off : off+int(l)]
		off += int(l)
	}
	return strs, nil
}

// expandNulls unpacks a NULL bitmap into one flag per row.
func expandNulls(mask []byte, rows int) []bool {
	null := make([]bool, rows)
	for i := range null {
		null[i] = mask[i>>3]&(1<<(i&7)) != 0
	}
	return null
}

// parseRequestFingerprint extracts the fingerprint from a sealed request
// frame, without consuming it. It exists for network-level fault
// injection, which keys faults on dataset identity.
func parseRequestFingerprint(frame []byte) (uint64, bool) {
	if len(frame) < 4+10 {
		return 0, false
	}
	if int(binary.BigEndian.Uint32(frame)) != len(frame)-4 {
		return 0, false
	}
	fp, _, err := decodeRequest(frame[4:])
	return fp, err == nil
}

// encodeResponse flattens a ScoreResult into a sealed response frame.
func encodeResponse(res pipeline.ScoreResult) []byte {
	status := byte(statusScore)
	msg := ""
	switch {
	case res.Err != nil && res.Transient:
		status = statusTransient
		msg = res.Err.Error()
	case res.Err != nil:
		status = statusPermanent
		msg = res.Err.Error()
	case res.Deterministic:
		status = statusDeterministic
	}
	buf := newFrame(14 + len(msg))
	buf = append(buf, protocolVersion, status)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(res.Score))
	buf = binary.BigEndian.AppendUint32(buf, uint32(res.Attempts))
	buf = append(buf, msg...)
	return sealFrame(buf)
}

// decodeResponse rebuilds the ScoreResult a worker sent. Remote failures
// come back classified: transient ones wrap pipeline.ErrTransient so retry
// stacks treat them exactly like local transient failures.
func decodeResponse(payload []byte) (pipeline.ScoreResult, error) {
	if len(payload) < 14 || payload[0] != protocolVersion {
		return pipeline.ScoreResult{}, fmt.Errorf("%w: bad score response header", errProtocol)
	}
	score := math.Float64frombits(binary.BigEndian.Uint64(payload[2:]))
	attempts := int(binary.BigEndian.Uint32(payload[10:]))
	msg := string(payload[14:])
	switch payload[1] {
	case statusScore:
		return pipeline.ScoreResult{Score: score, Attempts: attempts}, nil
	case statusDeterministic:
		return pipeline.ScoreResult{Score: score, Deterministic: true, Attempts: attempts}, nil
	case statusTransient:
		return pipeline.ScoreResult{
			Score:     math.NaN(),
			Err:       fmt.Errorf("remote worker: %s: %w", msg, pipeline.ErrTransient),
			Transient: true,
			Attempts:  attempts,
		}, nil
	case statusPermanent:
		return pipeline.ScoreResult{
			Score:    math.NaN(),
			Err:      fmt.Errorf("remote worker: %s", msg),
			Attempts: attempts,
		}, nil
	}
	return pipeline.ScoreResult{}, fmt.Errorf("%w: unknown status %d", errProtocol, payload[1])
}
