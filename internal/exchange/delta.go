package exchange

// Delta assessment on the service hot path (DESIGN.md §15): per-model
// reconstruction-error columns are cached keyed by (tenant, signature
// fingerprint), each column stamped with the ETag of the model it was
// computed under. When a tenant republishes one schema's model — a version
// bump — the registry generation moves and the coalescer stops sharing old
// flights, but the next assessment of the same signatures recomputes ONLY
// the republished model's column; every other column is reused unchanged.
// Reused columns hold the exact float64s a fresh pass would produce (the
// kernels are deterministic per row), so delta-served verdicts are
// byte-identical to cold ones — the service.delta.* counters exist to
// prove the saved work, not to excuse drift.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"collabscope/internal/lru"
)

// maxDeltaEntries bounds the per-server delta cache: one entry is one
// distinct (tenant, signature set) with up to one error column per foreign
// model. The least recently used entry is evicted first; the cache is an
// accelerator, never a correctness dependency.
const maxDeltaEntries = 128

// deltaColumn is one cached per-model error column.
type deltaColumn struct {
	etag string
	errs []float64
}

// deltaStore maps a (tenant, signatures) key to its known columns, keyed by
// foreign schema name.
type deltaStore struct {
	mu      sync.Mutex
	entries *lru.Cache[string, map[string]deltaColumn]
}

func newDeltaStore() *deltaStore {
	return &deltaStore{entries: lru.New[string, map[string]deltaColumn](maxDeltaEntries)}
}

// lookup returns a copy of the entry's columns (so the caller reads them
// without holding the lock against concurrent flights).
func (d *deltaStore) lookup(key string) map[string]deltaColumn {
	d.mu.Lock()
	defer d.mu.Unlock()
	cols, ok := d.entries.Get(key)
	if !ok {
		return nil
	}
	out := make(map[string]deltaColumn, len(cols))
	for name, c := range cols {
		out[name] = c
	}
	return out
}

// put stores freshly computed columns, evicting the least recently used
// entry beyond the capacity bound.
func (d *deltaStore) put(key string, cols map[string]deltaColumn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries.Get(key)
	if !ok {
		e = make(map[string]deltaColumn, len(cols))
		d.entries.Put(key, e)
	}
	for name, c := range cols {
		e[name] = c
	}
}

// assessSigKey fingerprints the signature content of an assess request —
// the requesting schema's name plus the exact float64 bits of every row.
// Mode, epsilon and element labels are deliberately excluded: they only
// shape the verdict fold, not the error columns the cache holds.
func assessSigKey(tenant string, req *AssessRequest) string {
	h := sha256.New()
	var buf [8]byte
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(req.Schema))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(len(req.Signatures)))
	h.Write(buf[:])
	for _, row := range req.Signatures {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
