package corun

import (
	"math/rand"
	"reflect"
	"testing"

	"dora/internal/workload"
)

func TestKernelSet(t *testing.T) {
	ks := Kernels()
	if len(ks) != 9 {
		t.Fatalf("kernel count = %d, want 9 (Table III)", len(ks))
	}
	counts := map[Intensity]int{}
	for _, k := range ks {
		counts[k.Intensity]++
	}
	if counts[Low] != 4 || counts[Medium] != 3 || counts[High] != 2 {
		t.Fatalf("intensity split = %v, want 4/3/2", counts)
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("KMEANS")
	if err != nil || k.Name != "kmeans" {
		t.Fatalf("ByName = %+v, %v", k, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown kernel must error")
	}
}

func TestIntensityString(t *testing.T) {
	for in, want := range map[Intensity]string{Low: "low", Medium: "medium", High: "high", None: "none"} {
		if in.String() != want {
			t.Errorf("%d.String() = %q", in, in.String())
		}
	}
	if Intensity(77).String() == "" {
		t.Error("unknown intensity must format")
	}
}

func TestRepresentative(t *testing.T) {
	for in, want := range map[Intensity]string{Low: "kmeans", Medium: "bfs", High: "backprop"} {
		k, err := Representative(in)
		if err != nil || k.Name != want {
			t.Fatalf("Representative(%v) = %+v, %v", in, k, err)
		}
	}
	if _, err := Representative(None); err == nil {
		t.Fatal("Representative(None) must error")
	}
}

func TestPickForRotates(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		k, err := PickFor(Low, i)
		if err != nil {
			t.Fatal(err)
		}
		if k.Intensity != Low {
			t.Fatalf("PickFor(Low,%d) returned %v intensity", i, k.Intensity)
		}
		seen[k.Name] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rotation covered %d low kernels, want all 4", len(seen))
	}
	// Negative index must not panic.
	if _, err := PickFor(Medium, -3); err != nil {
		t.Fatal(err)
	}
	if _, err := PickFor(None, 0); err == nil {
		t.Fatal("PickFor(None) must error")
	}
}

func TestAllKernelsProduceValidInfiniteStreams(t *testing.T) {
	for _, k := range Kernels() {
		src := k.New(42)
		if src.Name() == "" {
			t.Fatalf("%s: empty source name", k.Name)
		}
		var ops, lines int64
		for i := 0; i < 500; i++ {
			seg, ok := src.Next()
			if !ok {
				t.Fatalf("%s: stream ended at %d; co-runners must be infinite", k.Name, i)
			}
			if err := seg.Validate(); err != nil {
				t.Fatalf("%s: invalid segment %+v: %v", k.Name, seg, err)
			}
			ops += seg.Ops
			lines += seg.Lines
		}
		if ops <= 0 || lines <= 0 {
			t.Fatalf("%s: no work produced (ops=%d lines=%d)", k.Name, ops, lines)
		}
		src.Reset()
		if _, ok := src.Next(); !ok {
			t.Fatalf("%s: reset stream must restart", k.Name)
		}
	}
}

// opsPerLine and footprint are the first-order determinants of L2 MPKI
// on the simulator; check the classes are structurally separable before
// the full SoC-level classification test (Table III bench).
func TestIntensityStructure(t *testing.T) {
	const l2 = 2 << 20
	type agg struct {
		opsPerMissLine float64 // ops per line touch in L2-exceeding footprints
		maxFP          int64
	}
	measure := func(k Kernel) agg {
		src := k.New(1)
		var ops, missLines, fp int64
		for i := 0; i < 300; i++ {
			seg, ok := src.Next()
			if !ok {
				break
			}
			ops += seg.Ops
			// Only touches to footprints larger than the L2 can miss
			// steadily; L2-resident structures stop missing once warm.
			if seg.FootprintBytes > l2 {
				missLines += seg.Lines
			}
			if seg.FootprintBytes > fp {
				fp = seg.FootprintBytes
			}
		}
		opml := float64(0)
		if missLines > 0 {
			opml = float64(ops) / float64(missLines)
		}
		return agg{opml, fp}
	}
	for _, k := range Kernels() {
		a := measure(k)
		switch k.Intensity {
		case Low:
			// Low kernels' dominant footprints fit the 2 MB L2.
			if a.maxFP > l2 {
				t.Errorf("%s: low-intensity kernel footprint %d exceeds L2", k.Name, a.maxFP)
			}
		case Medium, High:
			if a.maxFP <= l2 {
				t.Errorf("%s: %v kernel footprint %d fits L2, cannot generate misses", k.Name, k.Intensity, a.maxFP)
			}
		}
		// MPKI ~ 1000/opsPerMissLine when big footprints mostly miss.
		if k.Intensity == High && (a.opsPerMissLine <= 0 || a.opsPerMissLine > 130) {
			t.Errorf("%s: high-intensity kernel ops/miss-line %v too high for MPKI > 7", k.Name, a.opsPerMissLine)
		}
		if k.Intensity == Medium && (a.opsPerMissLine < 140 || a.opsPerMissLine > 1000) {
			t.Errorf("%s: medium kernel ops/miss-line %v outside MPKI 1-7 band", k.Name, a.opsPerMissLine)
		}
	}
}

func TestHeartwallHasIdleGaps(t *testing.T) {
	src, _ := ByName("heartwall")
	s := src.New(1)
	seg, ok := s.Next()
	if !ok || seg.IdleNs <= 0 {
		t.Fatalf("heartwall must have frame gaps, got %+v", seg)
	}
}

func TestDistinctRegions(t *testing.T) {
	// Kernels must not share address regions with each other (first
	// 300 segments).
	bases := map[string]map[uint64]bool{}
	for _, k := range Kernels() {
		src := k.New(7)
		bases[k.Name] = map[uint64]bool{}
		for i := 0; i < 50; i++ {
			seg, ok := src.Next()
			if !ok {
				break
			}
			bases[k.Name][seg.Base] = true
		}
	}
	for a, ba := range bases {
		for b, bb := range bases {
			if a >= b {
				continue
			}
			for addr := range ba {
				if bb[addr] {
					t.Fatalf("kernels %s and %s share base %#x", a, b, addr)
				}
			}
		}
	}
}

func TestBFSLevelsAreRealistic(t *testing.T) {
	src := newBFS(3).(*bfsSource)
	if len(src.levels) < 3 {
		t.Fatalf("BFS produced %d levels; random graph should have several", len(src.levels))
	}
	var total int64
	peak := int64(0)
	for _, f := range src.levels {
		total += f
		if f > peak {
			peak = f
		}
	}
	if total > 600_000 {
		t.Fatalf("BFS visited %d nodes > graph size", total)
	}
	if peak < 10_000 {
		t.Fatalf("BFS peak frontier %d too small for a connected random graph", peak)
	}
	// Frontier expands then contracts (unimodal up to noise): first
	// level is 1, peak is interior.
	if src.levels[0] != 1 {
		t.Fatal("BFS must start from a single source")
	}
}

// bfsLevelsFloat64 is newBFS's level construction with each edge
// drawn as rng.Float64() < p: the reference the integer threshold
// must reproduce.
func bfsLevelsFloat64(seed int64) []int64 {
	const n, avgDeg = 600_000, 8
	rng := rand.New(rand.NewSource(seed))
	var levels []int64
	unvisited, frontier := int64(n-1), int64(1)
	for frontier > 0 && unvisited > 0 {
		levels = append(levels, frontier)
		next := int64(0)
		p := float64(unvisited) / float64(n)
		for i := int64(0); i < frontier*avgDeg && next < unvisited; i++ {
			if rng.Float64() < p {
				next++
			}
		}
		unvisited -= next
		frontier = next
	}
	return levels
}

// TestBFSLevelsMatchFloat64 checks that newBFS's integer draws give
// the levels the Float64 draws give, seed for seed: 60 seeds, or 10
// under -short, which CI runs with the race detector.
func TestBFSLevelsMatchFloat64(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		got := newBFS(seed).(*bfsSource).levels
		if want := bfsLevelsFloat64(seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: levels %v, want %v", seed, got, want)
		}
	}
}

// TestFloat64Threshold pins floatRetry to where math/rand's Float64
// starts drawing again, and float64Threshold to the least Int63 value
// whose Float64 is not below p, at the ends and in between.
func TestFloat64Threshold(t *testing.T) {
	if float64(int64(floatRetry))/(1<<63) != 1 || float64(int64(floatRetry-1))/(1<<63) >= 1 {
		t.Fatalf("floatRetry %#x is not the least Int63 value that rounds to 1", int64(floatRetry))
	}
	rng := rand.New(rand.NewSource(1))
	ps := []float64{0, 1, 0.5, 1.0 / 600_000, 599_999.0 / 600_000, 0x1p-63, 0x1p-60 + 0x1p-80, 1 - 0x1p-53}
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		x := float64Threshold(p)
		if x < 0 || x > floatRetry {
			t.Fatalf("p %v: threshold %d out of range", p, x)
		}
		if float64(x)/(1<<63) < p {
			t.Fatalf("p %v: Float64 of threshold %d is below p", p, x)
		}
		if x > 0 && float64(x-1)/(1<<63) >= p {
			t.Fatalf("p %v: threshold %d is not the least", p, x)
		}
	}
}

func TestBTreeAlternation(t *testing.T) {
	src := newBTree(1)
	a, _ := src.Next()
	b, _ := src.Next()
	c, _ := src.Next()
	if a.Kind != "btree-inner" || b.Kind != "btree-leaf" || c.Kind != "btree-inner" {
		t.Fatalf("alternation broken: %s, %s, %s", a.Kind, b.Kind, c.Kind)
	}
	if a.FootprintBytes >= b.FootprintBytes {
		t.Fatal("inner footprint must be smaller than leaf footprint")
	}
	if workload.LineBytes*b.Lines <= 0 {
		t.Fatal("leaf visits must touch lines")
	}
}

func TestDeterminism(t *testing.T) {
	for _, k := range Kernels() {
		a, b := k.New(5), k.New(5)
		for i := 0; i < 100; i++ {
			sa, oka := a.Next()
			sb, okb := b.Next()
			if oka != okb || sa != sb {
				t.Fatalf("%s: same seed diverged at segment %d", k.Name, i)
			}
		}
	}
}
