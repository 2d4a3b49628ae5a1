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

// reencode is a GetRaw vet function for payload entries: the entry
// must decode as a payload, and its re-encoding is what hits serve.
func reencode(raw []byte) ([]byte, bool) {
	var p payload
	if json.Unmarshal(raw, &p) != nil {
		return nil, false
	}
	b, err := json.Marshal(p)
	return b, err == nil
}

func TestRawRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetRaw("k", reencode); ok {
		t.Fatal("empty cache must miss")
	}
	// PutRaw stores the bytes as given; a hit on an entry this process
	// stored returns them without vetting.
	body := []byte(`{"Name":"reddit","Extra":1}`)
	c.PutRaw("k", body)
	got, ok := c.GetRaw("k", func([]byte) ([]byte, bool) {
		t.Fatal("entry stored by this process was vetted")
		return nil, false
	})
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("GetRaw after PutRaw = %s", got)
	}
	var p payload
	if !c.Get("k", &p) || p.Name != "reddit" {
		t.Fatalf("Get of a PutRaw entry = %+v", p)
	}
	if hits, misses, stores := c.Stats(); hits != 2 || misses != 1 || stores != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2/1/1", hits, misses, stores)
	}
	var nilCache *Cache
	nilCache.PutRaw("k", body)
	if _, ok := nilCache.GetRaw("k", reencode); ok {
		t.Fatal("nil cache must miss")
	}
}

// TestPutRawRejectsUnusableValues: the raw writer refuses what Put
// refuses (TestPutNullValueNotCached), so no lookup can hit an entry
// that is empty, invalid, or the null literal.
func TestPutRawRejectsUnusableValues(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "c.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range []string{"", "   ", "null", " null\n", "{", `{"A":1}}`, "nul"} {
		key := fmt.Sprint("k", i)
		c.PutRaw(key, []byte(raw))
		if _, ok := c.GetRaw(key, reencode); ok {
			t.Fatalf("PutRaw(%q) became a hit", raw)
		}
	}
	c.PutRaw("nil", nil)
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	if _, _, stores := c.Stats(); stores != 0 {
		t.Fatalf("stores = %d, want 0", stores)
	}
}

// TestGetRawVetsDiskEntriesOnce: an entry Open read from disk passes
// through vet on its first hit only. A rejected entry misses and is
// overwritable; an accepted one is replaced by vet's bytes, and the
// cache turns dirty only when those bytes differ.
func TestGetRawVetsDiskEntriesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	content := fmt.Sprintf(`{"version":%d,"entries":{"canon":{"Name":"a","Value":0,"Tags":null},"pretty":{ "Name": "b", "Unknown": 1 },"bad":{"Name":7}}}`, SchemaVersion)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	vets := 0
	counting := func(raw []byte) ([]byte, bool) {
		vets++
		return reencode(raw)
	}

	for i := 0; i < 2; i++ {
		got, ok := c.GetRaw("canon", counting)
		if !ok || string(got) != `{"Name":"a","Value":0,"Tags":null}` {
			t.Fatalf("canon hit %d = %s", i, got)
		}
	}
	if vets != 1 || c.dirty {
		t.Fatalf("canonical entry: %d vets, dirty %v; want 1 vet and a clean cache", vets, c.dirty)
	}

	for i := 0; i < 2; i++ {
		got, ok := c.GetRaw("pretty", counting)
		if !ok || string(got) != `{"Name":"b","Value":0,"Tags":null}` {
			t.Fatalf("pretty hit %d = %s", i, got)
		}
	}
	if vets != 2 || !c.dirty {
		t.Fatalf("rewritten entry: %d vets, dirty %v; want 2 vets and a dirty cache", vets, c.dirty)
	}

	for i := 0; i < 2; i++ {
		if got, ok := c.GetRaw("bad", counting); ok {
			t.Fatalf("entry of the wrong shape served: %s", got)
		}
	}
	if vets != 4 {
		t.Fatalf("rejected entry vetted %d times in 2 lookups, want 2", vets-2)
	}
	c.PutRaw("bad", []byte(`{"Name":"fresh"}`))
	if got, ok := c.GetRaw("bad", counting); !ok || string(got) != `{"Name":"fresh"}` || vets != 4 {
		t.Fatalf("overwritten entry = %s (vets %d)", got, vets)
	}
	if hits, misses, stores := c.Stats(); hits != 5 || misses != 2 || stores != 1 {
		t.Fatalf("stats = %d/%d/%d, want 5/2/1", hits, misses, stores)
	}
}

// TestOpenTruncatedFile cuts a saved two-entry file at every prefix
// length. Open must never fail, never serve a damaged entry through
// Get or GetRaw, and a following Save must write a file that re-opens
// with the surviving entries.
func TestOpenTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	c, err := Open(full)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]payload{
		"a": {Name: "alpha", Value: 1.5, Tags: []int{1}},
		"b": {Name: "beta", Value: -2, Tags: []int{2, 3}},
	}
	for k, v := range want {
		c.Put(k, v)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	raw := map[string][]byte{}
	for k, v := range want {
		raw[k], _ = json.Marshal(v)
	}

	// surviving returns the keys c serves, checking each is intact.
	surviving := func(t *testing.T, c *Cache) []string {
		t.Helper()
		var keys []string
		for _, k := range []string{"a", "b"} {
			var p payload
			gotGet := c.Get(k, &p)
			got, gotRaw := c.GetRaw(k, reencode)
			if gotGet != gotRaw {
				t.Fatalf("%s: Get hit %v, GetRaw hit %v", k, gotGet, gotRaw)
			}
			if !gotGet {
				continue
			}
			if p.Name != want[k].Name || p.Value != want[k].Value || len(p.Tags) != len(want[k].Tags) || !bytes.Equal(got, raw[k]) {
				t.Fatalf("%s served damaged: Get %+v, GetRaw %s", k, p, got)
			}
			keys = append(keys, k)
		}
		return keys
	}

	for n := 0; n <= len(data); n++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.json", n))
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(path)
		if err != nil {
			t.Fatalf("prefix %d: Open: %v", n, err)
		}
		before := surviving(t, c)
		if n == len(data) && len(before) != 2 {
			t.Fatalf("whole file serves %v, want both entries", before)
		}
		if err := c.Save(); err != nil {
			t.Fatalf("prefix %d: Save: %v", n, err)
		}
		back, err := Open(path)
		if err != nil {
			t.Fatalf("prefix %d: reopen: %v", n, err)
		}
		if after := surviving(t, back); fmt.Sprint(after) != fmt.Sprint(before) || back.Len() != len(before) {
			t.Fatalf("prefix %d: served %v before Save, %v (Len %d) after", n, before, after, back.Len())
		}
	}
}

// TestOpenEntriesNotAnObject: a file whose entries field is not a JSON
// object loads empty, and the next Save replaces it with a valid file.
func TestOpenEntriesNotAnObject(t *testing.T) {
	for _, entries := range []string{`[{"Name":"x"}]`, `"k"`, `7`, `true`, `null`} {
		t.Run(entries, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.json")
			content := fmt.Sprintf(`{"version":%d,"entries":%s}`, SchemaVersion, entries)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if c.Len() != 0 {
				t.Fatalf("Len = %d, want 0", c.Len())
			}
			var p payload
			if c.Get("0", &p) || c.Get("k", &p) {
				t.Fatal("hit in a cache whose entries were not an object")
			}
			c.Put("probe", payload{Name: "probe"})
			if err := c.Save(); err != nil {
				t.Fatal(err)
			}
			back, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != 1 || !back.Get("probe", &p) || p.Name != "probe" {
				t.Fatalf("reopened: Len %d, probe %+v", back.Len(), p)
			}
		})
	}
}

// TestGetRawConcurrentFirstHits races first hits on disk entries
// against each other and against PutRaw overwrites (run under -race).
// Every hit must be either the vetted disk entry or the overwrite.
func TestGetRawConcurrentFirstHits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	const n = 32
	var entries bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			entries.WriteByte(',')
		}
		fmt.Fprintf(&entries, `"k%d":{ "Name": "disk" }`, i)
	}
	content := fmt.Sprintf(`{"version":%d,"entries":{%s}}`, SchemaVersion, entries.String())
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const vetted, fresh = `{"Name":"disk","Value":0,"Tags":null}`, `{"Name":"fresh"}`
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				key := fmt.Sprint("k", i)
				if g == 0 && i%2 == 0 {
					c.PutRaw(key, []byte(fresh))
				}
				got, ok := c.GetRaw(key, reencode)
				if !ok || (string(got) != vetted && string(got) != fresh) {
					t.Errorf("%s = %s (hit %v)", key, got, ok)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		want := vetted
		if i%2 == 0 {
			want = fresh
		}
		if got, _ := c.GetRaw(fmt.Sprint("k", i), reencode); string(got) != want {
			t.Fatalf("k%d = %s, want %s", i, got, want)
		}
	}
}
