package cachemodel

import (
	"encoding/json"
	"fmt"
	"io"
)

// Discovery is expensive (minutes of simulated probing in the paper's
// setting), so models are persisted and reused across analysis runs —
// the paper ships its reverse-engineered Xeon model the same way. The
// format is plain JSON; internal/store is what puts it on disk.

// modelJSON is the serialized form.
type modelJSON struct {
	Assoc     int        `json:"assoc"`
	LineBytes int        `json:"line_bytes"`
	Sets      [][]uint64 `json:"sets"`
}

// Save writes the model to w as JSON.
func (m *Model) Save(w io.Writer) error {
	mj := modelJSON{Assoc: m.Assoc, LineBytes: m.LineBytes}
	for _, s := range m.Sets {
		mj.Sets = append(mj.Sets, s.Addrs)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(mj)
}

// Load reads a model from JSON.
func Load(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("cachemodel: decode: %w", err)
	}
	// Every consumer computes a line as addr &^ (LineBytes-1), so a line
	// size that is not a power of two would steer the search at lines
	// that do not exist.
	if mj.Assoc <= 0 || mj.LineBytes <= 0 || mj.LineBytes&(mj.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cachemodel: invalid model (assoc %d, line %d)", mj.Assoc, mj.LineBytes)
	}
	m := &Model{Assoc: mj.Assoc, LineBytes: mj.LineBytes}
	total := 0
	for i, addrs := range mj.Sets {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("cachemodel: empty set %d", i)
		}
		total += len(addrs)
		m.Sets = append(m.Sets, ContentionSet{Addrs: addrs})
	}
	m.Reindex()
	// A valid model partitions its addresses: an address indexed by fewer
	// entries than the sets claim appeared in two sets (or twice in one),
	// which no discovery run produces — the decoded shape cannot be
	// trusted just because it parsed (models now travel through the
	// on-disk store, where a corrupt payload must read as a miss).
	if len(m.setOf) != total {
		return nil, fmt.Errorf("%w: %d addresses indexed across %d set entries (duplicate membership)", ErrInconsistent, len(m.setOf), total)
	}
	return m, nil
}
