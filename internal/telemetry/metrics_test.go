package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("requests_total", ""); again != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("temp_c", "temperature")
	g.Set(41.5)
	if g.Value() != 41.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	// A value exactly on a bucket bound belongs to that bucket (le is
	// inclusive), values above all bounds go to +Inf.
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 5.0, 5.0001, 100} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("bounds %v cum %v", bounds, cum)
	}
	// le=1: {0.5, 1.0}; le=2: +{1.0001, 2.0}; le=5: +{5.0}; +Inf: +{5.0001, 100}
	want := []uint64{2, 4, 5, 7}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.0001+2+5+5.0001+100; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %v, want %v (%v)", i, got[i], want[i], got)
		}
	}
	for _, bad := range []func(){
		func() { ExponentialBuckets(0, 2, 4) },
		func() { ExponentialBuckets(1, 1, 4) },
		func() { ExponentialBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid ExponentialBuckets args did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "total runs").Add(3)
	r.Gauge("freq_mhz", "frequency").Set(1497)
	r.Histogram("mpki", "co-run MPKI", []float64{1, 8}).Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE runs_total counter", "runs_total 3",
		"# TYPE freq_mhz gauge", "freq_mhz 1497",
		"# TYPE mpki histogram", `mpki_bucket{le="8"} 1`, `mpki_bucket{le="+Inf"} 1`,
		"mpki_sum 3", "mpki_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONExpositionAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Inc()
	r.Histogram("h", "", []float64{10}).Observe(3)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var metrics []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 2 {
		t.Fatalf("got %d metrics", len(metrics))
	}

	res2, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if ct := res2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

func TestNilRegistryAndCollectorsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("y", "").Set(1)
	r.Histogram("z", "", []float64{1}).Observe(2)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("nil registry JSON = %q", b.String())
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "").Inc()
				r.Histogram("h", "", []float64{1, 2, 3}).Observe(float64(j % 5))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Histogram("h", "", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	// Distinct names registered from many goroutines must each appear
	// exactly once in the exposition, exercising the create slow path
	// racing the lock-free read path.
	r := NewRegistry()
	var wg sync.WaitGroup
	names := []string{"a_total", "b_total", "c_total", "d_total"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter(names[j%len(names)], "help").Inc()
				r.Gauge("g", "").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if got := strings.Count(b.String(), "# TYPE "+name+" counter"); got != 1 {
			t.Fatalf("metric %s exposed %d times", name, got)
		}
		if r.Counter(name, "").Value() != 8*200/uint64(len(names)) {
			t.Fatalf("metric %s lost increments: %d", name, r.Counter(name, "").Value())
		}
	}
}
