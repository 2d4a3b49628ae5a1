package runcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRunCacheEntry feeds arbitrary bytes to the cache as its on-disk
// file and asserts the contract the serve path depends on: Open never
// panics and never admits an entry that could masquerade as a hit
// while leaving the caller's value untouched (the JSON null literal,
// invalid JSON), Get and GetRaw on every surviving key are panic-free
// and GetRaw serves only usable JSON, and a fresh
// Put survives a Save/Open round trip even when the original file was
// garbage. The committed seed corpus includes the truncated, wrong-
// version, duplicate-key, and null-entry shapes that motivated the
// validEntry guard.
func FuzzRunCacheEntry(f *testing.F) {
	f.Add([]byte(`{"version":1,"entries":{"k":null}}`))
	f.Add([]byte(`{"version":1,"entries":{"k":{"A":1,"B":"ok"}}}`))
	f.Add([]byte(`{"version":1,"entr`))
	f.Add([]byte(`{"version":99,"entries":{"k":1}}`))
	f.Add([]byte(`{"version":1,"entries":{"k":1,"k":2}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"version":1,"entries":{"k":"null","j":null,"i":[null]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip("tempdir write failed")
		}
		c, err := Open(path)
		if err != nil {
			// Open only errors on I/O failure; any parseable-or-not
			// content must load (possibly empty), never error or panic.
			t.Fatalf("Open rejected file content: %v", err)
		}

		type payload struct {
			A int
			B string
			C []float64
		}

		// Every entry that survived Open must be usable: valid JSON and
		// not the null literal.
		c.mu.Lock()
		keys := make([]string, 0, len(c.entries))
		for k, raw := range c.entries {
			if !validEntry(raw) {
				c.mu.Unlock()
				t.Fatalf("Open kept unusable entry %q: %q", k, raw)
			}
			keys = append(keys, k)
		}
		c.mu.Unlock()

		vet := func(raw []byte) ([]byte, bool) {
			var v payload
			if json.Unmarshal(raw, &v) != nil {
				return nil, false
			}
			b, err := json.Marshal(v)
			return b, err == nil
		}
		for _, k := range keys {
			v := payload{A: -1, B: "sentinel"}
			c.Get(k, &v) // must not panic; mismatched shapes miss
			if raw, ok := c.GetRaw(k, vet); ok && !validEntry(raw) {
				t.Fatalf("GetRaw served unusable entry %q: %q", k, raw)
			}
		}
		var absent payload
		if c.Get("\x00no-such-key", &absent) {
			t.Fatal("hit on absent key")
		}

		// Whatever the original file held, a fresh entry must round-trip.
		c.Put("fuzz-probe", payload{A: 7, B: "x", C: []float64{1.5}})
		if err := c.Save(); err != nil {
			t.Fatalf("Save after garbage load: %v", err)
		}
		c2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after Save: %v", err)
		}
		var got payload
		if !c2.Get("fuzz-probe", &got) {
			t.Fatal("probe entry lost across Save/Open")
		}
		if got.A != 7 || got.B != "x" || len(got.C) != 1 || got.C[0] != 1.5 {
			t.Fatalf("probe entry corrupted: %+v", got)
		}
	})
}
