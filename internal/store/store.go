// Package store is the persistent cross-run artifact store for
// discovered cache models and rainbow tables (ROADMAP item 1a). The
// paper's workflow assumes exactly this shape of reuse: the cache model
// is reverse-engineered once per machine and shipped alongside the tool,
// and rainbow tables are precomputed; re-deriving either on every
// analysis run is pure waste.
//
// The store is content-addressed: callers derive a key with Key(...)
// from every input that influenced the artifact (geometry, memory
// regions, seed, discovery configuration, algorithm revision), so a
// config change can never alias a stale artifact — it simply misses.
// An entry is one JSON header line carrying a schema tag, the kind, the
// key, the payload's length and its CRC-32C, then the payload's raw
// bytes; reads that fail for any reason (missing file, truncated or
// garbage bytes, schema/kind/key mismatch, wrong length or checksum) are
// misses, never errors: the caller re-derives and overwrites. Writes go
// through a temp file and rename, so a crashed writer leaves either the
// old entry or none — a torn write surfaces as a miss on the next run.
//
// Do wraps Get/Put in a keyed single-flight (parallel.Group) that keeps
// every key's outcome for the life of the process. The analysis pipeline
// does not use it: it reads through Get and writes through Put, so no
// outcome outlives the run that produced it. bench/layers.go is Do's
// last caller.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"castan/internal/parallel"
)

// Schema tags the entry layout. Bump it to invalidate every existing
// store entry at once: old entries then read as misses.
const Schema = "castan-store/v2"

// Artifact kinds. The kind is part of both the file name and the
// entry header, so two artifact types can never alias even under key
// collision.
const (
	KindModel   = "cachemodel"
	KindRainbow = "rainbow"
	// KindReport holds clean (non-degraded) analysis reports keyed by an
	// idempotent request — the castand service's retry cache.
	KindReport = "report"
)

// Key derives the canonical content address for an artifact from the
// parts that produced it. Callers must include every input that can
// change the artifact's bytes (and an algorithm-revision salt when the
// derivation itself changes); sha256 keeps the key stable, short, and
// filename-safe.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		// Length-prefix each part so concatenation ambiguity cannot
		// alias two different part lists.
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// header is the first line of an entry's file; the payload's bytes
// follow its newline verbatim, so reading an entry parses only this.
type header struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	Len    int    `json:"len"`
	CRC32C uint32 `json:"crc32c"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is one on-disk artifact directory. The zero value is not
// usable; Open it. A nil *Store is valid and behaves as an always-miss,
// never-write store, so callers can thread an optional store without
// guarding every use.
type Store struct {
	dir     string
	flights parallel.Group[string, []byte]
}

// Open creates (if needed) and opens the store directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// path names the entry file for (kind, key). The ".json" suffix outlives
// the JSON envelopes of castan-store/v1 on purpose: a v1 entry under a
// key that has not changed since is overwritten by the next Put rather
// than left behind as an orphan.
func (s *Store) path(kind, key string) string {
	return filepath.Join(s.dir, kind+"-"+key+".json")
}

// Get returns the payload stored under (kind, key), as a sub-slice of
// the file's bytes. Every failure mode — absent file, unreadable bytes,
// no header line, malformed header, schema version bump, kind or key
// mismatch, a length other than the bytes that follow, a checksum
// mismatch — is reported as a plain miss: the artifact is re-derivable by
// construction, so corruption is never worth an error path, let alone a
// crash.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	raw, err := os.ReadFile(s.path(kind, key))
	if err != nil {
		return nil, false
	}
	line, payload, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		return nil, false
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, false
	}
	if h.Schema != Schema || h.Kind != kind || h.Key != key || h.Len != len(payload) ||
		h.CRC32C != crc32.Checksum(payload, castagnoli) {
		return nil, false
	}
	return payload, true
}

// Put stores payload under (kind, key), atomically: the entry is written
// to a temp file in the store directory and renamed into place, so
// concurrent readers (and crashed writers) see either the previous entry
// or the complete new one.
func (s *Store) Put(kind, key string, payload []byte) error {
	if s == nil {
		return nil
	}
	line, err := json.Marshal(header{Schema: Schema, Kind: kind, Key: key, Len: len(payload),
		CRC32C: crc32.Checksum(payload, castagnoli)})
	if err != nil {
		return fmt.Errorf("store: encode %s/%s: %w", kind, key, err)
	}
	tmp, err := os.CreateTemp(s.dir, kind+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(append(line, '\n'))
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s/%s: %w", kind, key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s/%s: %w", kind, key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(kind, key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: commit %s/%s: %w", kind, key, err)
	}
	return nil
}

// Do returns the payload for (kind, key), computing and persisting it on
// a miss. Concurrent callers for the same entry share one computation
// (single-flight); hit reports whether THIS caller avoided the compute —
// a disk hit, or a ride on another caller's in-flight derivation. Every
// outcome — payload or compute error — is kept for the key for the rest
// of the process, and later calls return it without reading the disk;
// compute functions that can fail transiently, or whose result a caller
// may reject, belong outside Do. bench/layers.go is its last caller.
func (s *Store) Do(kind, key string, compute func() ([]byte, error)) (payload []byte, hit bool, err error) {
	if s == nil {
		p, err := compute()
		return p, false, err
	}
	computed := false
	p, err := s.flights.Do(kind+"/"+key, func() ([]byte, error) {
		if data, ok := s.Get(kind, key); ok {
			return data, nil
		}
		computed = true
		data, err := compute()
		if err != nil {
			return nil, err
		}
		if err := s.Put(kind, key, data); err != nil {
			return nil, err
		}
		return data, nil
	})
	return p, err == nil && !computed, err
}
