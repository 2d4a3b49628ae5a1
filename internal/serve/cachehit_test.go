package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/wire"
)

// hitProbe is the load request the run-cache hit tests send, in both
// transports' spellings.
const hitProbe = `{"page":"Alipay","seed":5}`

var hitProbeWire = wire.LoadRequest{Page: "Alipay", Seed: 5}

// hitProbeKey is the runcache key a default server derives for
// hitProbe.
func hitProbeKey(t *testing.T) string {
	t.Helper()
	s := NewServer(Config{})
	defer s.Close()
	req, apiErr := DecodeLoadRequestDefault([]byte(hitProbe), s.cfg.DefaultFidelity)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return s.loadKey(req)
}

// diskCache writes a cache file holding entry under key, as an earlier
// process (or a hand edit) would have left it, and opens it.
func diskCache(t *testing.T, key string, entry []byte) (*runcache.Cache, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.json")
	data := fmt.Sprintf(`{"version":%d,"entries":{%q:%s}}`, runcache.SchemaVersion, key, entry)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := runcache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache file loaded %d entries, want 1", c.Len())
	}
	return c, path
}

// fetchProbe sends hitProbe over one transport and returns the body
// and its provenance.
func fetchProbe(t *testing.T, transport string, ts *httptest.Server) ([]byte, string) {
	t.Helper()
	if transport == "stream" {
		c := dialStream(t, ts, wire.Options{})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		body, source, err := c.Load(ctx, &hitProbeWire)
		if err != nil {
			t.Fatalf("stream load: %v", err)
		}
		return body, source
	}
	resp, body := postJSON(t, ts.URL+"/v1/load", hitProbe)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get(SourceHeader)
}

// TestRunCacheDiskEntryWrongTypeMisses: a disk entry that does not
// decode as a sim.Result is a miss, not a hit. The request simulates,
// its body overwrites the entry, and the next request is a cache hit
// with the simulated bytes.
func TestRunCacheDiskEntryWrongTypeMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real simulation")
	}
	key := hitProbeKey(t)
	for _, transport := range []string{"json", "stream"} {
		t.Run(transport, func(t *testing.T) {
			cache, _ := diskCache(t, key, []byte(`{"LoadTime":"x"}`))
			s, ts := newTestServer(t, Config{Cache: cache}, nil)

			first, src := fetchProbe(t, transport, ts)
			if src != "sim" {
				t.Fatalf("first source = %q, want sim", src)
			}
			if stored, ok := cache.GetRaw(key, canonicalResult); !ok || !bytes.Equal(stored, first) {
				t.Fatalf("entry not overwritten by the simulated body: %s", stored)
			}
			second, src := fetchProbe(t, transport, ts)
			if src != "cache" || !bytes.Equal(second, first) {
				t.Fatalf("second = %q %s, want the simulated bytes from cache", src, second)
			}
			if n := s.mExecs.Value(); n != 1 {
				t.Fatalf("%d simulations, want 1", n)
			}
		})
	}
}

// TestRunCacheDiskEntryCanonicalOnFirstHit: a pretty-printed disk entry
// with an unknown field is answered with its canonical encoding,
// json.Marshal of its sim.Result decoding, on the first hit and on
// every hit after; the canonical bytes are what the next Save writes.
func TestRunCacheDiskEntryCanonicalOnFirstHit(t *testing.T) {
	res := sim.Result{Page: "Alipay", Governor: "interactive", LoadTime: 1234567 * time.Microsecond,
		DeadlineMet: true, EnergyJ: 1.5, FreqResidency: map[int]time.Duration{300: 5 * time.Millisecond}}
	var fields map[string]any
	plain, _ := json.Marshal(res)
	if err := json.Unmarshal(plain, &fields); err != nil {
		t.Fatal(err)
	}
	fields["FromAnOlderWriter"] = true
	entry, err := json.MarshalIndent(fields, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var decoded sim.Result
	if err := json.Unmarshal(entry, &decoded); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(decoded)
	if bytes.Equal(want, entry) {
		t.Fatal("test entry is already canonical")
	}

	key := hitProbeKey(t)
	for _, transport := range []string{"json", "stream"} {
		t.Run(transport, func(t *testing.T) {
			cache, path := diskCache(t, key, entry)
			s, ts := newTestServer(t, Config{Cache: cache}, nil)
			for i := 0; i < 2; i++ {
				body, src := fetchProbe(t, transport, ts)
				if src != "cache" || !bytes.Equal(body, want) {
					t.Fatalf("hit %d = %q %s, want cache %s", i+1, src, body, want)
				}
			}
			if n := s.mExecs.Value(); n != 0 {
				t.Fatalf("%d simulations, want 0", n)
			}
			if err := cache.Save(); err != nil {
				t.Fatal(err)
			}
			saved, err := runcache.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := saved.GetRaw(key, func(raw []byte) ([]byte, bool) { return raw, true }); !ok || !bytes.Equal(got, want) {
				t.Fatalf("saved entry = %s, want %s", got, want)
			}
		})
	}
}

// TestCacheHitAllocs is the allocation guard for a warm hit on an entry
// this process stored: the lookup hands back the stored body, so it
// allocates nothing. As with the root package's alloc guards, the
// strict zero assertion is gated to non-race builds.
func TestCacheHitAllocs(t *testing.T) {
	cache, err := runcache.Open(filepath.Join(t.TempDir(), "cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Cache: cache})
	defer s.Close()
	const key = "warm"
	cache.PutRaw(key, []byte(`{"Page":"Alipay"}`))
	allocs := testing.AllocsPerRun(100, func() {
		if b, ok := s.cacheGet(key); !ok || len(b) == 0 {
			t.Fatal("warm entry missed")
		}
	})
	if raceEnabled {
		t.Logf("race build: cache hit allocs/op = %.1f (strict guard skipped)", allocs)
		return
	}
	if allocs != 0 {
		t.Fatalf("cache hit allocates: %.1f allocs per lookup (want 0)", allocs)
	}
}
