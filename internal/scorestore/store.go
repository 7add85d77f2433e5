// Package scorestore is the crash-safe, content-addressed on-disk score
// cache behind restartable searches: malfunction scores keyed by
// (dataset fingerprint, oracle id) survive the process, so a re-run or a
// killed-and-resumed search performs zero repeat oracle evaluations.
//
// # Journal format
//
// A store root holds one subdirectory per oracle (the hex of a 64-bit hash
// of the oracle id), containing a meta.json and append-only journal
// segments:
//
//	<root>/<oracle-hash>/meta.json
//	<root>/<oracle-hash>/seg-00000001.dpj
//	<root>/<oracle-hash>/seg-00000002.dpj
//	...
//
// Each segment is a sequence of fixed-size 22-byte records:
//
//	byte 0     magic (0xD5)
//	bytes 1-8  dataset fingerprint (little endian uint64)
//	bytes 9-16 math.Float64bits(score) (little endian uint64)
//	byte 17    flags (bit 0: deterministic crash score)
//	bytes 18-21 IEEE CRC-32 of bytes 0-17 (little endian)
//
// Appends go to the highest-numbered segment; when it exceeds
// Options.MaxSegmentBytes the store rotates by fsyncing the full segment
// and creating the next one with O_EXCL — a crash mid-rotation leaves
// either the old tail segment alone or an additional empty segment, both
// of which recover cleanly.
//
// # Recovery invariants
//
// Open replays every segment in order. A record is accepted only when its
// magic and CRC check out; the first truncated or corrupt record in a
// segment ends that segment's replay (records after a corruption cannot be
// trusted to be aligned), and replay continues with the next segment. So a
// torn append — the expected crash artifact — loses at most the record
// being written; everything durably appended before it loads. Appending
// resumes in a fresh segment after any segment that recovered dirty, never
// after a corrupt tail in place.
//
// meta.json records the full oracle id and the dataset fingerprint
// algorithm version (dataset.FingerprintAlgoVersion). A store whose meta
// carries a different algorithm version is discarded on open — fingerprints
// from another algorithm generation key different content, and serving
// scores across generations would silently corrupt searches. An oracle-id
// 64-bit hash collision inside one root is detected the same way (the meta
// holds the full id) and reported as an error.
package scorestore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/dataset"
)

const (
	recordSize  = 22
	recordMagic = 0xD5

	flagDeterministic = 1 << 0

	// DefaultMaxSegmentBytes bounds one journal segment (~48k records).
	DefaultMaxSegmentBytes = 1 << 20
)

// ErrOracleMismatch is returned by Open when the store subdirectory chosen
// by the oracle-id hash was created for a different oracle id — a 64-bit
// hash collision between oracle ids, or a corrupted meta file.
var ErrOracleMismatch = errors.New("scorestore: directory belongs to a different oracle")

// Options configures a Store.
type Options struct {
	// MaxSegmentBytes caps one journal segment before rotation; zero means
	// DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// Sync fsyncs after every append. Off by default: the journal is a
	// cache, so losing the last few appends on a crash only costs repeat
	// oracle calls, never correctness. Rotation and Close always sync.
	Sync bool
}

// meta is the persisted identity of one oracle's cache directory.
type meta struct {
	// FormatVersion is the journal format generation.
	FormatVersion int `json:"format_version"`
	// OracleID is the full oracle identity the scores belong to.
	OracleID string `json:"oracle_id"`
	// FingerprintAlgo is the dataset fingerprint algorithm generation the
	// keys were computed under (dataset.FingerprintAlgoVersion).
	FingerprintAlgo int `json:"fingerprint_algo"`
}

// Stats reports what Open recovered and what the store did since.
type Stats struct {
	// Loaded is how many records replayed successfully on Open.
	Loaded int
	// CorruptTail is how many segments ended in a truncated or corrupt
	// record whose tail was skipped during recovery.
	CorruptTail int
	// Discarded reports whether Open threw away an existing cache because
	// its fingerprint algorithm version did not match.
	Discarded bool
	// Appends is how many records this handle appended.
	Appends int
}

// Store is a crash-safe persistent score cache for one oracle. Safe for
// concurrent use. It implements the engine's ScoreStore contract (Load /
// Save), with Save swallowing I/O errors into Err so a failing disk
// degrades the cache, never the search.
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	mem        map[uint64]entry
	active     *os.File
	activeSize int64
	seq        int
	stats      Stats
	writeErr   error
	closed     bool
}

type entry struct {
	score         float64
	deterministic bool
}

// Open opens (creating if needed) the score cache for oracleID under root.
// Existing journal segments are replayed with corruption-tolerant recovery;
// a cache written under a different dataset-fingerprint algorithm version
// is discarded and restarted empty.
func Open(root, oracleID string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	dir := filepath.Join(root, fmt.Sprintf("%016x", hashOracleID(oracleID)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scorestore: %w", err)
	}
	s := &Store{dir: dir, opts: opts, mem: make(map[uint64]entry)}

	metaPath := filepath.Join(dir, "meta.json")
	if raw, err := os.ReadFile(metaPath); err == nil {
		var m meta
		if jerr := json.Unmarshal(raw, &m); jerr != nil || m.OracleID != oracleID {
			if jerr == nil {
				return nil, fmt.Errorf("%w: directory %s holds oracle %q, want %q",
					ErrOracleMismatch, dir, m.OracleID, oracleID)
			}
			// Unreadable meta: treat like an algorithm mismatch and restart.
			s.stats.Discarded = true
		} else if m.FingerprintAlgo != dataset.FingerprintAlgoVersion {
			// Fingerprints from another algorithm generation key different
			// content; serving them would silently corrupt searches.
			s.stats.Discarded = true
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("scorestore: %w", err)
	}

	segs, err := s.segments()
	if err != nil {
		return nil, err
	}
	if s.stats.Discarded {
		for _, seg := range segs {
			if err := os.Remove(filepath.Join(dir, seg)); err != nil {
				return nil, fmt.Errorf("scorestore: discarding stale cache: %w", err)
			}
		}
		segs = nil
	}
	if err := writeMeta(metaPath, meta{FormatVersion: 1, OracleID: oracleID, FingerprintAlgo: dataset.FingerprintAlgoVersion}); err != nil {
		return nil, err
	}

	dirtyTail := false
	for _, seg := range segs {
		n := segNumber(seg)
		if n > s.seq {
			s.seq = n
		}
		loaded, clean, err := s.replaySegment(filepath.Join(dir, seg))
		if err != nil {
			return nil, err
		}
		s.stats.Loaded += loaded
		if !clean {
			s.stats.CorruptTail++
			dirtyTail = true
		}
	}
	// Resume appends in the newest segment only when it replayed clean and
	// has room; a dirty or full tail gets a fresh segment so new records
	// never land after bytes recovery skipped.
	if s.seq > 0 && !dirtyTail {
		path := s.segPath(s.seq)
		if fi, err := os.Stat(path); err == nil && fi.Size() < opts.MaxSegmentBytes && fi.Size()%recordSize == 0 {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("scorestore: %w", err)
			}
			s.active = f
			s.activeSize = fi.Size()
		}
	}
	if s.active == nil {
		if err := s.openNextSegment(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// segments lists the journal files under dir in ascending sequence order.
func (s *Store) segments() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("scorestore: %w", err)
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() && segNumber(e.Name()) > 0 {
			segs = append(segs, e.Name())
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segNumber(segs[i]) < segNumber(segs[j]) })
	return segs, nil
}

// segNumber parses "seg-%08d.dpj", returning 0 for anything else.
func segNumber(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "seg-%08d.dpj", &n); err != nil {
		return 0
	}
	return n
}

func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.dpj", n))
}

// replaySegment loads one segment's records into mem. clean reports whether
// the whole segment parsed; on the first truncated or corrupt record the
// rest of the segment is skipped.
func (s *Store) replaySegment(path string) (loaded int, clean bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, false, fmt.Errorf("scorestore: %w", err)
	}
	off := 0
	for off+recordSize <= len(raw) {
		rec := raw[off : off+recordSize]
		fp, e, ok := decodeRecord(rec)
		if !ok {
			return loaded, false, nil
		}
		s.mem[fp] = e
		loaded++
		off += recordSize
	}
	return loaded, off == len(raw), nil
}

// openNextSegment rotates to a fresh journal segment, syncing the previous
// one so rotation is an atomic durability point.
func (s *Store) openNextSegment() error {
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("scorestore: sealing segment: %w", err)
		}
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("scorestore: sealing segment: %w", err)
		}
		s.active = nil
	}
	for {
		s.seq++
		f, err := os.OpenFile(s.segPath(s.seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue // a crashed rotation left this number behind; skip it
		}
		if err != nil {
			return fmt.Errorf("scorestore: %w", err)
		}
		s.active = f
		s.activeSize = 0
		return nil
	}
}

// writeMeta persists the identity file atomically (temp + rename) so a
// crash never leaves a half-written meta that would discard the cache.
func writeMeta(path string, m meta) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("scorestore: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("scorestore: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("scorestore: %w", err)
	}
	return nil
}

// Load returns the persisted score for a dataset fingerprint. It is the
// read-through half of the engine's ScoreStore contract.
func (s *Store) Load(fp uint64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.mem[fp]
	if !ok {
		return math.NaN(), false
	}
	return e.score, true
}

// Save appends a score record, deduplicating against what is already
// persisted. I/O errors are kept for Close to return — a failing disk turns
// the store into a pass-through cache instead of failing the search.
func (s *Store) Save(fp uint64, score float64, deterministic bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if e, ok := s.mem[fp]; ok && e.score == score {
		return
	}
	s.mem[fp] = entry{score: score, deterministic: deterministic}
	if s.writeErr != nil {
		return
	}
	if s.activeSize+recordSize > s.opts.MaxSegmentBytes {
		if err := s.openNextSegment(); err != nil {
			s.writeErr = err
			return
		}
	}
	rec := encodeRecord(fp, score, deterministic)
	if _, err := s.active.Write(rec[:]); err != nil {
		s.writeErr = fmt.Errorf("scorestore: append: %w", err)
		return
	}
	s.activeSize += recordSize
	s.stats.Appends++
	if s.opts.Sync {
		if err := s.active.Sync(); err != nil {
			s.writeErr = fmt.Errorf("scorestore: sync: %w", err)
		}
	}
}

// Stats returns a snapshot of the recovery and append counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close syncs and closes the active segment and returns the first append,
// sync or close failure, if any: Save never fails the caller, so Close is
// where a degraded disk surfaces. The store rejects further Saves
// afterwards; Loads keep answering from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return s.writeErr
	}
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	if s.writeErr == nil && err != nil {
		s.writeErr = fmt.Errorf("scorestore: close: %w", err)
	}
	return s.writeErr
}

// encodeRecord lays out one journal record.
func encodeRecord(fp uint64, score float64, deterministic bool) [recordSize]byte {
	var rec [recordSize]byte
	rec[0] = recordMagic
	binary.LittleEndian.PutUint64(rec[1:9], fp)
	binary.LittleEndian.PutUint64(rec[9:17], math.Float64bits(score))
	if deterministic {
		rec[17] |= flagDeterministic
	}
	binary.LittleEndian.PutUint32(rec[18:22], crc32.ChecksumIEEE(rec[:18]))
	return rec
}

// decodeRecord validates magic and CRC and unpacks one record.
func decodeRecord(rec []byte) (fp uint64, e entry, ok bool) {
	if rec[0] != recordMagic {
		return 0, entry{}, false
	}
	if crc32.ChecksumIEEE(rec[:18]) != binary.LittleEndian.Uint32(rec[18:22]) {
		return 0, entry{}, false
	}
	fp = binary.LittleEndian.Uint64(rec[1:9])
	e.score = math.Float64frombits(binary.LittleEndian.Uint64(rec[9:17]))
	e.deterministic = rec[17]&flagDeterministic != 0
	return fp, e, true
}

// hashOracleID maps an oracle id to its directory hash (FNV-1a 64).
func hashOracleID(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}
