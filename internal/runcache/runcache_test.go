package runcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type payload struct {
	Name  string
	Value float64
	Tags  []int
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Name: "reddit", Value: 1.25, Tags: []int{1, 2, 3}}
	key := Key("run", want.Name, 1958)
	var got payload
	if c.Get(key, &got) {
		t.Fatal("empty cache must miss")
	}
	c.Put(key, want)
	if !c.Get(key, &got) || got.Name != want.Name || got.Value != want.Value {
		t.Fatalf("get after put = %+v", got)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("reopened cache has %d entries", c2.Len())
	}
	got = payload{}
	if !c2.Get(key, &got) || got.Tags[2] != 3 {
		t.Fatalf("reopened get = %+v", got)
	}
	hits, misses, stores := c2.Stats()
	if hits != 1 || misses != 0 || stores != 0 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, stores)
	}
}

func TestVersionMismatchDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	stale, _ := json.Marshal(file{Version: SchemaVersion + 1, Entries: map[string]json.RawMessage{
		"k": json.RawMessage(`{"Name":"old"}`),
	}})
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("stale-version cache loaded %d entries", c.Len())
	}
	// The rewrite (even with no new entries) must install the current
	// version.
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 0 {
		t.Fatal("discarded entries resurrected")
	}
}

func TestCorruptFileDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("corrupt cache must load empty")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	var v payload
	if c.Get("k", &v) {
		t.Fatal("nil cache must miss")
	}
	c.Put("k", payload{})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.Path() != "" {
		t.Fatal("nil cache must be empty")
	}
}

func TestPutUnmarshalableValueSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("nan", math.NaN()) // JSON cannot represent NaN
	if c.Len() != 0 {
		t.Fatal("NaN value must not be stored")
	}
}

func TestKeyStableAndDistinct(t *testing.T) {
	a := Key("run", "Reddit", 1958, 3.5)
	b := Key("run", "Reddit", 1958, 3.5)
	if a != b {
		t.Fatal("identical parts must hash identically")
	}
	if a == Key("run", "Reddit", 1958, 3.6) {
		t.Fatal("different parts must hash differently")
	}
	if a == Key("run", "Reddit", 1958) {
		t.Fatal("part count must matter")
	}
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("part boundaries must matter")
	}
}

func TestConcurrentAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := Key("cell", g, i)
				c.Put(key, payload{Name: "x", Value: float64(i)})
				var v payload
				if !c.Get(key, &v) {
					t.Errorf("lost entry %d/%d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 8*50 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestOpenDropsUnusableEntries is the deterministic regression for the
// shape-trust bug FuzzRunCacheEntry guards: a cache file whose entry is
// the JSON null literal used to be reported by Get as a hit while
// leaving the caller's value untouched — a corrupt or truncated file
// silently served zero-valued simulation results.
func TestOpenDropsUnusableEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	content := fmt.Sprintf(`{"version":%d,"entries":{"nil":null,"ok":{"A":3}," pad":  null }}`, SchemaVersion)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	type payload struct{ A int }
	v := payload{A: -1}
	if c.Get("nil", &v) {
		t.Fatalf("null entry served as a hit: %+v", v)
	}
	if v.A != -1 {
		t.Fatalf("miss mutated the caller's value: %+v", v)
	}
	if !c.Get("ok", &v) || v.A != 3 {
		t.Fatalf("valid sibling entry lost: %+v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (null entries dropped at Open)", c.Len())
	}
	// The sanitized view must be persisted even with no new Puts.
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", c2.Len())
	}
}

// TestPutNullValueNotCached: storing a value that encodes to JSON null
// (nil pointer, untyped nil) must be a no-op, not a future bogus hit.
func TestPutNullValueNotCached(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	type payload struct{ A int }
	var p *payload
	c.Put("k", p)
	c.Put("j", nil)
	var v payload
	if c.Get("k", &v) || c.Get("j", &v) {
		t.Fatal("null-encoding Put became a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

// A Save whose directory has vanished fails without touching the file
// it would replace and keeps the cache dirty, so a later Save to a good
// path still writes every entry.
func TestSaveToMissingDirKeepsCacheDirty(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "runs.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", 1)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("b", 2)

	moved := filepath.Join(root, "moved")
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err == nil {
		t.Fatal("Save into a missing directory succeeded")
	}
	left, err := os.ReadDir(moved)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("failed Save left %d files beside the cache, want only the cache", len(left))
	}
	if got, err := os.ReadFile(filepath.Join(moved, "runs.json")); err != nil || !bytes.Equal(got, saved) {
		t.Fatalf("failed Save changed the existing file (err %v)", err)
	}

	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatalf("Save after the directory returned: %v", err)
	}
	back, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	if back.Len() != 2 || !back.Get("a", &a) || !back.Get("b", &b) || a != 1 || b != 2 {
		t.Fatalf("reopened cache has %d entries (a=%d b=%d), want both", back.Len(), a, b)
	}
}
