// Package runcache persists simulation results across process
// invocations, so repeated dorarepro/doratrain/benchmark runs against
// an unchanged device configuration skip the simulator entirely.
//
// The cache is a single JSON file mapping opaque string keys to raw
// JSON values. Keys are produced by Key, which hashes the caller's
// identifying parts (device configuration, run options, seeds)
// together with SchemaVersion — bumping the version therefore orphans
// every old entry at once, the same invalidation discipline as
// train.ObservationFileVersion. A cache whose file carries a different
// version is loaded empty rather than trusted.
//
// Get and Put store typed values: Put marshals, Get unmarshals into the
// caller's value on every hit. GetRaw and PutRaw store and return the
// encoded bytes themselves, for callers such as dorad whose answer is
// the encoded value: a hit then costs one map lookup. The slices are
// shared, not copied — a slice handed to PutRaw or returned by GetRaw
// must never be mutated.
//
// Every entry is usable JSON because every writer checks it: Open drops
// entries that are empty, invalid or the null literal, Put and PutRaw
// refuse to store them, and GetRaw checks what a vet function returns
// before it replaces an entry. Lookups therefore trust the map. Only
// the shape is unknown for entries that Open read from disk, which
// GetRaw vets on their first hit through the caller's vet function.
//
// A nil *Cache is a valid disabled cache: every method is a no-op, so
// call sites need no conditionals. All methods are safe for concurrent
// use by the worker pool.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// SchemaVersion identifies the simulator calibration and result schema
// the cached entries were produced under. Bump it whenever simulation
// timing, power calibration, or the cached result types change, so
// stale measurements are re-simulated rather than silently reused.
//
// v2: the key schema is namespaced by simulation fidelity — exact and
// sampled measurements of the same cell must never alias.
//
// v3: the sampled-mode detector no longer runs a detailed slice at
// governor decisions that keep the OPP, so sampled results changed.
//
// v4: exact mode's warmup stops at the first slice at or past Warmup
// instead of a decision-period boundary, which changes exact results
// whenever Warmup is not a multiple of the decision interval.
const SchemaVersion = 4

// file is the on-disk format.
type file struct {
	Version int                        `json:"version"`
	Entries map[string]json.RawMessage `json:"entries"`
}

// Cache is a persistent key -> JSON value store.
type Cache struct {
	path string

	mu      sync.Mutex
	entries map[string]json.RawMessage
	// unvetted holds the keys of entries Open loaded that GetRaw has not
	// yet passed through a vet function.
	unvetted map[string]struct{}
	dirty    bool

	hits   atomic.Uint64
	misses atomic.Uint64
	stores atomic.Uint64
}

// Open loads the cache at path. A missing file yields an empty cache;
// a file with a different SchemaVersion (or unparseable content) is
// discarded and replaced on the next Save rather than trusted.
func Open(path string) (*Cache, error) {
	c := &Cache{path: path, entries: map[string]json.RawMessage{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil || f.Version != SchemaVersion {
		// Stale or corrupt: start over. dirty marks the file for
		// rewrite even if no new entries land.
		c.dirty = true
		return c, nil
	}
	// The decoded shape is not trusted: a hand-edited, truncated, or
	// bit-rotted file can carry entries whose raw value is the JSON
	// null literal (or otherwise unusable), and json.Unmarshal of
	// "null" into a struct succeeds without touching it — which would
	// turn Get into a bogus "hit" serving a zero-valued result. Drop
	// any such entry here so it is a miss, and rewrite the file.
	for k, raw := range f.Entries {
		if !validEntry(raw) {
			delete(f.Entries, k)
			c.dirty = true
		}
	}
	if f.Entries != nil {
		c.entries = f.Entries
		c.unvetted = make(map[string]struct{}, len(f.Entries))
		for k := range f.Entries {
			c.unvetted[k] = struct{}{}
		}
	}
	return c, nil
}

// validEntry reports whether raw can serve as a cached value: it must
// be non-empty valid JSON and not the null literal. json.Unmarshal of
// null into a struct or slice is a silent no-op, so a null entry would
// otherwise masquerade as a hit that leaves the caller's value
// zero-valued.
func validEntry(raw json.RawMessage) bool {
	t := bytes.TrimSpace(raw)
	if len(t) == 0 || bytes.Equal(t, []byte("null")) {
		return false
	}
	return json.Valid(t)
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get unmarshals the entry for key into v and reports whether it was
// present. A nil cache always misses without counting stats.
func (c *Cache) Get(key string, v any) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	raw, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return false
	}
	if err := json.Unmarshal(raw, v); err != nil {
		// Entry incompatible with the requested shape: treat as a miss
		// so the caller re-simulates and overwrites it.
		c.misses.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
}

// GetRaw returns the stored bytes for key and reports whether it was
// present; the caller must not mutate them. An entry stored by this
// process is returned as it is. An entry Open read from disk is first
// passed to vet, once: vet decodes it into the caller's type and
// returns the canonical encoding, which replaces the entry (marking
// the cache dirty only when the bytes changed). If vet rejects it the
// lookup misses and the entry stays unvetted, for the caller to
// overwrite. A nil cache always misses without counting stats.
func (c *Cache) GetRaw(key string, vet func(raw []byte) ([]byte, bool)) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	raw, ok := c.entries[key]
	_, unvetted := c.unvetted[key]
	c.mu.Unlock()
	if ok && unvetted {
		raw, ok = c.vetFirstHit(key, raw, vet)
	}
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return raw, true
}

// vetFirstHit runs the first-hit check on an entry loaded from disk.
// It calls vet outside the lock and installs the result only if no
// writer or other vetter replaced the entry meanwhile.
func (c *Cache) vetFirstHit(key string, raw []byte, vet func([]byte) ([]byte, bool)) ([]byte, bool) {
	canon, ok := vet(raw)
	if !ok || !validEntry(canon) {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, still := c.unvetted[key]; still {
		delete(c.unvetted, key)
		if !bytes.Equal(canon, raw) {
			c.entries[key] = canon
			c.dirty = true
		}
	}
	return canon, true
}

// Put stores v under key. Marshal failures (e.g. NaN floats) and
// values that encode to JSON null (nil pointers, untyped nil) are
// swallowed: the run simply is not cached, since a null entry could
// never be served as a hit.
func (c *Cache) Put(key string, v any) {
	if c == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.PutRaw(key, raw)
}

// PutRaw stores the encoded value raw under key, as it is; the caller
// must not mutate raw afterwards. Empty, invalid and null JSON is
// swallowed, as in Put.
func (c *Cache) PutRaw(key string, raw []byte) {
	if c == nil || !validEntry(raw) {
		return
	}
	c.mu.Lock()
	c.entries[key] = raw
	delete(c.unvetted, key)
	c.dirty = true
	c.mu.Unlock()
	c.stores.Add(1)
}

// Stats returns the lifetime hit/miss/store counts of this handle.
func (c *Cache) Stats() (hits, misses, stores uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.stores.Load()
}

// Path returns the backing file path ("" for a nil cache).
func (c *Cache) Path() string {
	if c == nil {
		return ""
	}
	return c.path
}

// Save writes the cache back to its file (atomically, via a temp file
// and rename). It is a no-op when nothing changed or the cache is nil.
func (c *Cache) Save() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return nil
	}
	data, err := json.Marshal(file{Version: SchemaVersion, Entries: c.entries})
	if err != nil {
		return fmt.Errorf("runcache: marshal: %w", err)
	}
	dir := filepath.Dir(c.path)
	//doralint:allow locksafe Save snapshots the entry map atomically via temp-write-rename; the lock must span the I/O so a concurrent Put cannot split the snapshot
	tmp, err := os.CreateTemp(dir, ".runcache-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	c.dirty = false
	return nil
}

// Key derives a stable cache key from the given parts: each part is
// JSON-encoded (falling back to Go-syntax formatting for unmarshalable
// values) and hashed together with SchemaVersion. Two keys are equal
// iff every part encodes identically, so any field of the device
// configuration or run options that changes the measurement must be
// included in the parts.
func Key(parts ...any) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d", SchemaVersion)
	for _, p := range parts {
		h.Write([]byte{0}) // part separator
		if data, err := json.Marshal(p); err == nil {
			h.Write(data)
		} else {
			fmt.Fprintf(h, "%#v", p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
