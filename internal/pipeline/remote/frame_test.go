package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// awkwardFloats are numeric cells a textual encoding is prone to alter.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
	math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-310, 0.1, -1,
}

// awkwardStrings are string cells a textual encoding is prone to alter:
// NULL spellings that are not NULL, numbers that are strings, CSV
// delimiters, line endings, invalid UTF-8.
var awkwardStrings = []string{
	"", "NA", "null", "NULL", "-1", "1", " 7 ", "\r\n", "a\rb", "a,b", `"q"`, "\xff\xfe", "日本", strings.Repeat("x", 300),
}

// randomTable builds a dataset of every kind with NULLs, awkward cells and
// stale values under NULL bits, at the given chunk size.
func randomTable(rng *rand.Rand, rows, chunk int) *dataset.Dataset {
	d := dataset.NewChunked(chunk)
	for c := 0; c < 1+rng.Intn(5); c++ {
		null := make([]bool, rows)
		for i := range null {
			null[i] = rng.Intn(5) == 0
		}
		name := fmt.Sprintf("c%d", c)
		var err error
		switch c % 3 {
		case 0:
			nums := make([]float64, rows)
			for i := range nums {
				if rng.Intn(3) == 0 {
					nums[i] = awkwardFloats[rng.Intn(len(awkwardFloats))]
				} else {
					nums[i] = rng.NormFloat64() * 1e3
				}
			}
			err = d.AddNumericColumn(name, nums, null)
		default:
			strs := make([]string, rows)
			for i := range strs {
				if rng.Intn(2) == 0 {
					strs[i] = awkwardStrings[rng.Intn(len(awkwardStrings))]
				} else {
					strs[i] = fmt.Sprintf("v%d", rng.Intn(1000))
				}
			}
			if c%3 == 1 {
				err = d.AddCategoricalColumn(name, strs, null)
			} else {
				err = d.AddTextColumn(name, strs, null)
			}
		}
		if err != nil {
			panic(err)
		}
	}
	return d
}

// roundTrip sends d through the request codec as a worker would see it.
func roundTrip(t testing.TB, d *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	frame, err := encodeRequest(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	fp, table, err := decodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if fp != d.Fingerprint() || back.Fingerprint() != fp {
		t.Fatalf("fingerprints: sent %016x, header %016x, decoded %016x", d.Fingerprint(), fp, back.Fingerprint())
	}
	return back
}

// assertSameCells fails unless got holds want's schema and every raw cell,
// including the values under NULL bits.
func assertSameCells(t testing.TB, want, got *dataset.Dataset) {
	t.Helper()
	if !want.Equal(got) || want.NumRows() != got.NumRows() {
		t.Fatalf("decoded dataset differs: %d×%d vs %d×%d", want.NumRows(), want.NumCols(), got.NumRows(), got.NumCols())
	}
	for _, wc := range want.Columns() {
		gc := got.Column(wc.Name)
		if gc.Kind != wc.Kind {
			t.Fatalf("column %q: kind %v, want %v", wc.Name, gc.Kind, wc.Kind)
		}
		for r := 0; r < wc.Len(); r++ {
			same := gc.NullAt(r) == wc.NullAt(r)
			if wc.Kind == dataset.Numeric {
				same = same && math.Float64bits(gc.NumAt(r)) == math.Float64bits(wc.NumAt(r))
			} else {
				same = same && gc.StrAt(r) == wc.StrAt(r)
			}
			if !same {
				t.Fatalf("column %q row %d differs after the round trip", wc.Name, r)
			}
		}
	}
}

// TestFrameRoundTripKeepsEveryCell is the frame's equivalence property: over
// random tables of every kind, with NULLs, awkward cells and a spread of
// chunk sizes, the worker rebuilds the client's dataset cell for cell, with
// its fingerprint.
func TestFrameRoundTripKeepsEveryCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rows := rng.Intn(300)
		chunk := []int{1, 3, 7, 64, 256, dataset.DefaultChunkSize}[rng.Intn(6)]
		d := randomTable(rng, rows, chunk)
		assertSameCells(t, d, roundTrip(t, d))
	}
}

// TestFrameKeepsCellsTextWouldAlter pins the cells the CSV request body used
// to change in transit: non-NULL strings spelled like NULL, embedded line
// endings, NaN payloads and a value left under a NULL bit.
func TestFrameKeepsCellsTextWouldAlter(t *testing.T) {
	d := dataset.New()
	if err := d.AddCategoricalColumn("label", []string{"NA", "", "null"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.AddTextColumn("note", []string{"a\r\nb", "\xff", "x"}, []bool{false, false, true}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNumericColumn("v", []float64{math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 42}, []bool{false, false, true}); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, d)
	assertSameCells(t, d, back)
	if back.Column("label").NullAt(0) || back.Column("note").StrAt(0) != "a\r\nb" {
		t.Fatal("string cells altered in transit")
	}
}

// TestWorkerRejectsFingerprintMismatch checks the worker's guard: a table
// whose cells do not hash to the fingerprint the request claims is answered
// with a permanent failure, and the oracle never sees it.
func TestWorkerRejectsFingerprintMismatch(t *testing.T) {
	scorer := &valueScorer{}
	conn, err := net.Dial("tcp", startWorker(t, scorer))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame, err := encodeRequest(flagData(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 1 // the low bit of the only cell
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Transient || !strings.Contains(res.Err.Error(), "fingerprint") {
		t.Fatalf("tampered table answered %+v, want a permanent fingerprint failure", res)
	}
	if n := scorer.calls.Load(); n != 0 {
		t.Fatalf("oracle scored a tampered table %d times", n)
	}

	// The connection survives a rejected table: the next request scores.
	frame, err = encodeRequest(flagData(0.25), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if payload, err = readFrame(conn, nil); err != nil {
		t.Fatal(err)
	}
	if res, err = decodeResponse(payload); err != nil || res.Err != nil || res.Score != 0.25 {
		t.Fatalf("request after a rejected table = %+v, %v", res, err)
	}
}

// TestWorkerDropsOtherProtocolVersions checks version skew: a request from a
// peer speaking another protocol version is not guessed at; the worker
// hangs up.
func TestWorkerDropsOtherProtocolVersions(t *testing.T) {
	scorer := &valueScorer{}
	conn, err := net.Dial("tcp", startWorker(t, scorer))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := encodeRequest(flagData(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = protocolVersion - 1
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("read after a version-skewed request = %v, want EOF", err)
	}
	if n := scorer.calls.Load(); n != 0 {
		t.Fatalf("oracle scored a version-skewed request %d times", n)
	}
}

// TestWorkerLogsOnlyFaults checks what Worker.Logf promises: requests
// served without a fault log nothing, and a well-framed request that does
// not decode logs one line, which names the peer.
func TestWorkerLogsOnlyFaults(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logged := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(lines)
	}
	addr, stop := serveLogged(t, &valueScorer{}, func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, v := range []float64{0.5, 0.25} {
		frame, err := encodeRequest(flagData(v), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := decodeResponse(payload); err != nil || res.Err != nil || res.Score != v {
			t.Fatalf("request %g answered %+v, %v", v, res, err)
		}
	}
	if got := logged(); len(got) != 0 {
		t.Fatalf("two served requests logged %q, want nothing", got)
	}

	frame, err := encodeRequest(flagData(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = protocolVersion - 1
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("read after an undecodable request = %v, want EOF", err)
	}
	stop() // returns once the worker has ended the connection
	peer := conn.LocalAddr().String()
	if got := logged(); len(got) != 1 || !strings.Contains(got[0], peer) {
		t.Fatalf("an undecodable request logged %q, want one line naming %s", got, peer)
	}
}

// TestReadFrameGrowsAsBytesArrive checks that a length prefix alone
// cannot force a large allocation: a prefix claiming maxFrameSize followed
// by EOF allocates at most 1 MiB. It also reads frames of mixed sizes
// through one reused buffer and checks each payload.
func TestReadFrameGrowsAsBytesArrive(t *testing.T) {
	claim := binary.BigEndian.AppendUint32(nil, maxFrameSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(claim), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v, want EOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("a bare claim of %d bytes allocated %d bytes", maxFrameSize, n)
	}

	rng := rand.New(rand.NewSource(3))
	var stream bytes.Buffer
	var sent [][]byte
	for _, size := range []int{0, 1, 300_000, 7, 65_536, 65_537, 1 << 20, 2} {
		payload := make([]byte, size)
		rng.Read(payload)
		sent = append(sent, payload)
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(size)))
		stream.Write(payload)
	}
	stream.Write(binary.BigEndian.AppendUint32(nil, 10))
	stream.Write([]byte("short"))
	var buf []byte
	for i, want := range sent {
		if buf, err = readFrame(&stream, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("frame %d: %d bytes, err %v; want %d bytes", i, len(buf), err, len(want))
		}
	}
	if _, err := readFrame(&stream, buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut short: err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestDecodeTableRejectsOversizedClaims checks that lengths are trusted only
// as far as the bytes present: a header claiming billions of rows is
// refused before anything is allocated for them.
func TestDecodeTableRejectsOversizedClaims(t *testing.T) {
	header := func(rows uint32, ncols uint16) []byte {
		return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(nil, rows), ncols)
	}
	column := []byte{byte(dataset.Numeric), 0, 1, 'x'}
	cases := map[string][]byte{
		"rows beyond the bytes": append(header(math.MaxUint32, 1), column...),
		"rows without columns":  header(5, 0),
		"unknown kind":          append(header(1, 1), 9, 0, 1, 'x', 0, 0),
		"trailing bytes":        append(header(0, 0), 0),
		"string past the end":   append(header(1, 1), byte(dataset.Text), 0, 1, 'x', 0, 5, 'a'),
	}
	for name, table := range cases {
		if _, err := decodeTable(table); !errors.Is(err, errTable) {
			t.Errorf("%s: err = %v, want errTable", name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decodeTable(cases["rows beyond the bytes"])
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("refusing a claim of 2^32 rows allocated %d bytes", n)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to every decoder a worker or client
// runs on received bytes. None may panic, a table that does not decode
// fails with errTable, and any table that decodes re-encodes to a dataset
// with the same cells and fingerprint. The allocation bound is pinned
// deterministically by TestDecodeTableRejectsOversizedClaims.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, rows := range []int{0, 1, 9, 40} {
		frame, err := encodeRequest(randomTable(rng, rows, 1+rng.Intn(16)), nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add(encodeResponse(pipeline.ScoreResult{Score: 0.5, Attempts: 1}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := readFrame(bytes.NewReader(data), nil); err == nil {
			_, _ = decodeResponse(payload) // must not panic; any result is fine
		}
		if len(data) < 4 {
			return
		}
		_, table, err := decodeRequest(data[4:])
		if err != nil {
			return
		}
		d, err := decodeTable(table)
		if err != nil {
			if !errors.Is(err, errTable) {
				t.Fatalf("table error %v does not wrap errTable", err)
			}
			return
		}
		assertSameCells(t, d, roundTrip(t, d))
	})
}

// BenchmarkRequestCodec times one fleet evaluation's wire work without the
// network: the client encoding a Cardio-shaped table and the worker
// decoding it and checking its fingerprint.
func BenchmarkRequestCodec(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		d := dataset.New()
		rng := rand.New(rand.NewSource(3))
		for c := 0; c < 11; c++ {
			nums := make([]float64, rows)
			for i := range nums {
				nums[i] = float64(rng.Intn(200)) + rng.Float64()
			}
			d.MustAddNumeric(fmt.Sprintf("n%d", c), nums)
		}
		labels := make([]string, rows)
		for i := range labels {
			labels[i] = []string{"0", "1"}[rng.Intn(2)]
		}
		if err := d.AddCategoricalColumn("cardio", labels, nil); err != nil {
			b.Fatal(err)
		}
		d.Fingerprint() // the engine has it cached before any evaluation
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame, err := encodeRequest(d, nil)
				if err != nil {
					b.Fatal(err)
				}
				fp, table, err := decodeRequest(frame[4:])
				if err != nil {
					b.Fatal(err)
				}
				back, err := decodeTable(table)
				if err != nil || back.Fingerprint() != fp {
					b.Fatalf("decode: %v", err)
				}
				b.SetBytes(int64(len(frame)))
			}
		})
	}
}

// TestFleetScoresAwkwardTablesLikeLocal runs the oracle locally and over the
// wire on random tables and requires the same score: a scorer that reads
// every cell, under NULL bits included, sees the dataset the client holds.
func TestFleetScoresAwkwardTablesLikeLocal(t *testing.T) {
	digest := &pipeline.TryFunc{SystemName: "digest", Try: func(_ context.Context, d *dataset.Dataset) pipeline.ScoreResult {
		return pipeline.ScoreResult{Score: float64(d.Fingerprint()%1_000_003) / 1_000_003, Attempts: 1}
	}}
	tr := newTransport(startWorker(t, digest), nil, 0)
	defer tr.Close()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		d := randomTable(rng, rng.Intn(500), 1+rng.Intn(128))
		local := digest.TryMalfunctionScore(context.Background(), d)
		remote := tr.TryMalfunctionScore(context.Background(), d)
		if remote.Err != nil || remote.Score != local.Score {
			t.Fatalf("table %d: remote %+v, local %+v", i, remote, local)
		}
	}
}
