package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal is a durable append-only record of completed cells. Each
// successful cell appends one fsync'd JSON line, so a suite killed at any
// point can reopen the journal and skip every cell whose line survived —
// re-aggregating cached and fresh results in enumeration order keeps the
// output identical to an uninterrupted run.
//
// File layout (JSONL): a header line {magic, version, meta} followed by
// one {index, payload} line per completed cell. The meta string
// fingerprints the suite (experiment id, seeds, dimensions); reopening
// with a different meta is refused rather than silently mixing results
// from different suites. A truncated final line — the signature of a
// crash mid-append — is tolerated and dropped; any other malformed line
// is corruption and reported.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

const journalMagic = "potsim-journal"

// JournalVersion is bumped on incompatible layout changes; older files
// are rejected, never reinterpreted.
const JournalVersion = 1

type journalHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Meta    string `json:"meta"`
}

type journalEntry struct {
	Index   int             `json:"index"`
	Payload json.RawMessage `json:"payload"`
}

// OpenJournal opens (or creates) the journal at path for the suite
// identified by meta and returns the payloads of cells already recorded
// as complete. Duplicate indexes keep the last occurrence.
func OpenJournal(path, meta string) (*Journal, map[int]json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data = nil
	} else if err != nil {
		return nil, nil, err
	}

	lines, validLen := splitJournal(data)
	if len(lines) == 0 {
		// Fresh (or dead-on-create) journal: write the header first so a
		// later reader can always tell whose results these are.
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, nil, err
		}
		hdr, err := json.Marshal(journalHeader{Magic: journalMagic, Version: JournalVersion, Meta: meta})
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return &Journal{f: f, path: path}, map[int]json.RawMessage{}, nil
	}

	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, nil, fmt.Errorf("batch: journal %s has an unreadable header: %w", path, err)
	}
	if hdr.Magic != journalMagic {
		return nil, nil, fmt.Errorf("batch: %s is not a batch journal (magic %q)", path, hdr.Magic)
	}
	if hdr.Version != JournalVersion {
		return nil, nil, fmt.Errorf("batch: journal %s has version %d, this build reads %d; delete it or re-run without resuming", path, hdr.Version, JournalVersion)
	}
	if hdr.Meta != meta {
		return nil, nil, fmt.Errorf("batch: journal %s belongs to a different suite (meta %q, want %q); delete it or re-run without resuming", path, hdr.Meta, meta)
	}

	completed := make(map[int]json.RawMessage)
	for n, line := range lines[1:] {
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, nil, fmt.Errorf("batch: journal %s line %d is corrupt: %w", path, n+2, err)
		}
		if e.Index < 0 {
			return nil, nil, fmt.Errorf("batch: journal %s line %d has negative cell index %d", path, n+2, e.Index)
		}
		completed[e.Index] = e.Payload
	}
	if validLen < int64(len(data)) {
		// Torn final line from a crash mid-append: cut it off before
		// reopening for append, or the next record would fuse with the
		// orphaned bytes into one corrupt line.
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("batch: dropping torn tail of journal %s: %w", path, err)
		}
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, path: path}, completed, nil
}

// splitJournal cuts the file into complete lines and reports how many
// leading bytes they cover. A final chunk without a trailing newline is a
// torn append (JSON lines never contain raw newlines); it is excluded
// from both the lines and the valid length.
func splitJournal(data []byte) (lines [][]byte, validLen int64) {
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		if nl > 0 {
			lines = append(lines, rest[:nl])
		}
		validLen += int64(nl) + 1
		rest = rest[nl+1:]
	}
	return lines, validLen
}

// Record durably appends one completed cell: the line is written and
// fsync'd before Record returns, so a crash after a cell was journaled
// can never lose it, and a crash before leaves the cell unrecorded (it
// simply re-runs on resume). Only successful cells may be recorded.
func (j *Journal) Record(index int, payload any) error {
	if index < 0 {
		return fmt.Errorf("batch: negative cell index %d", index)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("batch: encoding cell %d result: %w", index, err)
	}
	line, err := json.Marshal(journalEntry{Index: index, Payload: raw})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("batch: appending to journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("batch: syncing journal %s: %w", j.path, err)
	}
	return nil
}

// Close releases the journal file handle.
func (j *Journal) Close() error { return j.f.Close() }

// MapJournaled is Map with crash-safe progress: cells whose results are
// already in the journal are served from it without re-running, and every
// freshly successful cell is journaled before it counts as done. Failed
// cells are never recorded. Results keep enumeration order, so the
// aggregate output of a resumed suite is identical to an uninterrupted
// one.
func MapJournaled[T any](ctx context.Context, opts Options, n int, j *Journal, cached map[int]json.RawMessage, fn func(ctx context.Context, index int) (T, error)) ([]T, error) {
	if j == nil {
		return Map(ctx, opts, n, fn)
	}
	// Decode cached payloads up front: a journal that cannot be decoded
	// must fail the suite loudly, not resurface as a puzzling cell error.
	have := make(map[int]T, len(cached))
	for i, raw := range cached {
		if i >= n {
			continue // suite shrank; stale entries are simply unused
		}
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("batch: journal %s entry for cell %d does not decode: %w", j.path, i, err)
		}
		have[i] = v
	}
	return Map(ctx, opts, n, func(ctx context.Context, i int) (T, error) {
		if v, ok := have[i]; ok {
			return v, nil
		}
		v, err := fn(ctx, i)
		if err != nil {
			return v, err
		}
		if err := j.Record(i, v); err != nil {
			return v, err
		}
		return v, nil
	})
}
