// Package corun implements the co-scheduled applications of the
// paper's Table III — the Rodinia-suite kernels used to generate
// controlled memory interference. Each kernel is a miniature but real
// implementation of the algorithm's loop structure (stencil sweeps,
// k-means passes, BFS levels over a generated graph, B+-tree probes
// over a built tree, back-propagation layer updates, Needleman-Wunsch
// anti-diagonals), emitting its compute and memory reference stream as
// workload segments. Memory intensity classes (L2 MPKI <1, 1-7, >7)
// emerge from each kernel's footprint and access pattern against the
// simulated 2 MB shared L2.
package corun

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"dora/internal/workload"
)

// Intensity is the Table III memory-intensity class.
type Intensity int

const (
	// Low intensity: L2 MPKI < 1.
	Low Intensity = iota
	// Medium intensity: L2 MPKI in [1, 7].
	Medium
	// High intensity: L2 MPKI > 7.
	High
	// None means no co-scheduled application (browser runs alone).
	None
)

// String names the intensity.
func (i Intensity) String() string {
	switch i {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	case None:
		return "none"
	default:
		return fmt.Sprintf("Intensity(%d)", int(i))
	}
}

// Kernel describes one co-run application.
type Kernel struct {
	Name      string
	Intensity Intensity
	// Domain is the paper's application-domain label.
	Domain string
	// New builds a fresh (infinite) workload source for the kernel.
	New func(seed int64) workload.Source
}

// kernels is the Table III co-run application set.
var kernels = []Kernel{
	{Name: "srad", Intensity: Low, Domain: "image processing", New: newSRAD},
	{Name: "heartwall", Intensity: Low, Domain: "image processing", New: newHeartwall},
	{Name: "kmeans", Intensity: Low, Domain: "clustering analysis", New: newKMeans},
	{Name: "hotspot", Intensity: Low, Domain: "temperature management", New: newHotspot},
	{Name: "srad2", Intensity: Medium, Domain: "image processing", New: newSRAD2},
	{Name: "bfs", Intensity: Medium, Domain: "graph traversal", New: newBFS},
	{Name: "b+tree", Intensity: Medium, Domain: "tree traversal", New: newBTree},
	{Name: "backprop", Intensity: High, Domain: "sensor data analysis", New: newBackprop},
	{Name: "needleman-wunsch", Intensity: High, Domain: "bioinformatics", New: newNW},
}

// Kernels returns the full co-run application set.
func Kernels() []Kernel { return append([]Kernel(nil), kernels...) }

// ByName looks up a kernel (case-insensitive).
func ByName(name string) (Kernel, error) {
	for _, k := range kernels {
		if strings.EqualFold(k.Name, name) {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("corun: unknown kernel %q", name)
}

// ByIntensity returns the kernels in one intensity class.
func ByIntensity(in Intensity) []Kernel {
	var out []Kernel
	for _, k := range kernels {
		if k.Intensity == in {
			out = append(out, k)
		}
	}
	return out
}

// Representative returns the canonical kernel for an intensity class,
// used by single-workload figures.
func Representative(in Intensity) (Kernel, error) {
	switch in {
	case Low:
		return ByName("kmeans")
	case Medium:
		return ByName("bfs")
	case High:
		return ByName("backprop")
	default:
		return Kernel{}, fmt.Errorf("corun: no representative for %v", in)
	}
}

// PickFor deterministically selects a kernel of the given intensity for
// the idx-th workload, rotating through the class members so the
// 54-combination campaign exercises every kernel.
func PickFor(in Intensity, idx int) (Kernel, error) {
	ks := ByIntensity(in)
	if len(ks) == 0 {
		return Kernel{}, fmt.Errorf("corun: no kernels with intensity %v", in)
	}
	if idx < 0 {
		idx = -idx
	}
	return ks[idx%len(ks)], nil
}

// regionBase derives a distinct address region per kernel so co-runner
// data never aliases browser structures in the shared cache.
func regionBase(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return 0x1_0000_0000 + (h.Sum64()%64)<<28
}

// --- Low intensity ------------------------------------------------

// newKMeans: k-means over 24k points x 8 float32 dims (768 KB): the
// point array streams sequentially each pass and fits the shared L2, so
// steady-state L2 misses are rare.
func newKMeans(seed int64) workload.Source {
	const (
		points = 24000
		dims   = 8
		k      = 12
	)
	footprint := int64(points * dims * 4)
	base := regionBase("kmeans")
	rng := rand.New(rand.NewSource(seed))
	return &phaseLoop{
		name: "kmeans",
		make: func(emit func(workload.Segment)) {
			iters := 15 + rng.Intn(10) // convergence varies per run
			for it := 0; it < iters; it++ {
				// Assignment pass: distance to every centroid.
				emit(workload.Segment{
					Kind: "kmeans-assign", Ops: points * dims * k * 2,
					Lines: footprint / workload.LineBytes, FootprintBytes: footprint,
					Pattern: workload.Sequential, Base: base, IPC: 1.9,
				})
				// Centroid update pass.
				emit(workload.Segment{
					Kind: "kmeans-update", Ops: points * dims * 3,
					Lines: footprint / workload.LineBytes, FootprintBytes: footprint,
					Pattern: workload.Sequential, Base: base, IPC: 1.8,
				})
			}
		},
	}
}

// newHotspot: 400x400 2-array thermal stencil (1.28 MB), iterative
// sweeps; fits L2.
func newHotspot(seed int64) workload.Source {
	const rows, cols = 400, 400
	footprint := int64(rows * cols * 4 * 2)
	base := regionBase("hotspot")
	_ = seed
	return &phaseLoop{
		name: "hotspot",
		make: func(emit func(workload.Segment)) {
			cells := int64(rows * cols)
			emit(workload.Segment{
				Kind: "hotspot-sweep", Ops: cells * 14,
				Lines: footprint / workload.LineBytes, FootprintBytes: footprint,
				Pattern: workload.Sequential, Base: base, IPC: 1.7,
			})
		},
	}
}

// newSRAD: speckle-reducing anisotropic diffusion on a 400x448 image
// (1.43 MB across two arrays); two stencil passes per iteration.
func newSRAD(seed int64) workload.Source {
	const rows, cols = 400, 448
	footprint := int64(rows * cols * 4 * 2)
	base := regionBase("srad")
	_ = seed
	return &phaseLoop{
		name: "srad",
		make: func(emit func(workload.Segment)) {
			cells := int64(rows * cols)
			for pass := 0; pass < 2; pass++ {
				emit(workload.Segment{
					Kind: "srad-pass", Ops: cells * 18,
					Lines: footprint / workload.LineBytes, FootprintBytes: footprint,
					Pattern: workload.Sequential, Base: base, IPC: 1.6,
				})
			}
		},
	}
}

// newHeartwall: frame-based cardiac image tracking — a burst of
// template matching per frame (488 KB image, fits L2) followed by the
// inter-frame gap, giving the kernel a sub-100% core utilization.
func newHeartwall(seed int64) workload.Source {
	const frameBytes = 656 * 744
	base := regionBase("heartwall")
	rng := rand.New(rand.NewSource(seed))
	return &phaseLoop{
		name: "heartwall",
		make: func(emit func(workload.Segment)) {
			ops := int64(9_000_000 + rng.Intn(2_000_000))
			emit(workload.Segment{
				Kind: "heartwall-frame", Ops: ops,
				Lines: frameBytes / workload.LineBytes * 3, FootprintBytes: frameBytes,
				Pattern: workload.Sequential, Base: base, IPC: 1.8,
				IdleNs: 3_000_000, // waiting for the next frame
			})
		},
	}
}

// --- Medium intensity ----------------------------------------------

// newSRAD2: the larger srad variant — 1024x1024 across two arrays
// (8 MB): the sweep streams through far more than the L2 holds, so a
// steady fraction of touches miss.
func newSRAD2(seed int64) workload.Source {
	const rows, cols = 1024, 1024
	footprint := int64(rows * cols * 4 * 2)
	base := regionBase("srad2")
	_ = seed
	return &phaseLoop{
		name: "srad2",
		make: func(emit func(workload.Segment)) {
			cells := int64(rows * cols)
			for pass := 0; pass < 2; pass++ {
				emit(workload.Segment{
					Kind: "srad2-pass", Ops: cells * 22,
					Lines: cells / 16, FootprintBytes: footprint,
					Pattern: workload.Sequential, Base: base, IPC: 1.6,
				})
			}
		},
	}
}

// bfsSource runs breadth-first search levels over a synthetic graph
// whose level structure is computed once, for real, at construction.
type bfsSource struct {
	name   string
	levels []int64 // frontier size per level
	base   uint64
	adjFP  int64
	level  int
}

func newBFS(seed int64) workload.Source {
	const n = 600_000
	const avgDeg = 8
	// Build the level structure of a random graph by simulating the
	// BFS frontier expansion (branching process capped by unvisited
	// population) — the real shape of BFS work over a random graph.
	rng := rand.New(rand.NewSource(seed))
	var levels []int64
	unvisited := int64(n - 1)
	frontier := int64(1)
	for frontier > 0 && unvisited > 0 {
		levels = append(levels, frontier)
		reach := frontier * avgDeg
		// Each edge hits an unvisited node with probability
		// unvisited/n; sample the next frontier.
		next := int64(0)
		below := float64Threshold(float64(unvisited) / float64(n))
		for i := int64(0); i < reach && next < unvisited; i++ {
			// Exactly rng.Float64() < unvisited/n, drawn as an integer.
			x := rng.Int63()
			for x >= floatRetry {
				x = rng.Int63()
			}
			if x < below {
				next++
			}
		}
		if next > unvisited {
			next = unvisited
		}
		unvisited -= next
		frontier = next
	}
	return &bfsSource{
		name:   "bfs",
		levels: levels,
		base:   regionBase("bfs"),
		adjFP:  int64(n * (avgDeg*4 + 8)), // adjacency + node arrays ~24 MB
	}
}

// floatRetry is the least Int63 draw that math/rand's Float64 throws
// away and draws again: from there up, float64(x) rounds to 1<<63, so
// x/2^63 would be 1.
const floatRetry = 1<<63 - 512

// float64Threshold returns the least x with float64(x)/2^63 >= p, for p
// in [0, 1]. Float64 returns float64(x)/2^63 for an Int63 draw x below
// floatRetry, and that is monotone in x, so Float64() < p exactly when
// x < float64Threshold(p).
func float64Threshold(p float64) int64 {
	lo, hi := int64(0), int64(floatRetry) // float64(floatRetry)/2^63 == 1 >= p
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (b *bfsSource) Name() string { return b.name }

func (b *bfsSource) Next() (workload.Segment, bool) {
	if len(b.levels) == 0 {
		return workload.Segment{}, false
	}
	frontier := b.levels[b.level%len(b.levels)]
	b.level++
	edges := frontier * 8
	return workload.Segment{
		Kind: "bfs-level", Ops: edges * 25,
		Lines: edges / 8, FootprintBytes: b.adjFP,
		Pattern: workload.Random, Base: b.base, IPC: 1.1,
	}, true
}

func (b *bfsSource) Reset() { b.level = 0 }

// btreeSource probes a B+-tree built (for real) at construction: the
// root and internal levels stay cache-resident, leaf visits scatter
// over a footprint far larger than the L2.
type btreeSource struct {
	depth     int
	innerFP   int64
	leafFP    int64
	base      uint64
	batchOps  int64
	batchKeys int64
	leafNext  bool // alternates inner-probe / leaf-visit segments
}

func newBTree(seed int64) workload.Source {
	const keys = 1_000_000
	const fanout = 64
	// Build the tree level sizes bottom-up, as a bulk load would:
	// leaves hold the keys; the levels above them are the (small,
	// cache-resident) inner index.
	leaves := keys / fanout
	level := leaves / fanout // first inner level
	depth := 2               // leaf + its parent level
	innerNodes := 0
	for level > 1 {
		innerNodes += level
		level /= fanout
		depth++
	}
	innerNodes++ // root
	_ = seed
	return &btreeSource{
		depth:     depth,
		innerFP:   int64(innerNodes) * 1024, // 1 KB nodes
		leafFP:    int64(keys) * 16,         // 16 B entries -> 16 MB
		base:      regionBase("b+tree"),
		batchKeys: 1000,
		batchOps:  1000 * 64 * 3, // fanout-64 binary probes per level
	}
}

func (b *btreeSource) Name() string { return "b+tree" }

func (b *btreeSource) Next() (workload.Segment, bool) {
	// One batch of searches = an inner-probe segment (cache-resident
	// upper levels) followed by a leaf-visit segment (16 MB scatter).
	if !b.leafNext {
		b.leafNext = true
		return workload.Segment{
			Kind: "btree-inner", Ops: b.batchOps * int64(b.depth) / (int64(b.depth) + 1),
			Lines: b.batchKeys * int64(b.depth) / 2, FootprintBytes: b.innerFP,
			Pattern: workload.Random, Base: b.base, IPC: 1.3,
		}, true
	}
	b.leafNext = false
	return workload.Segment{
		Kind: "btree-leaf", Ops: b.batchOps / (int64(b.depth) + 1) * 2,
		Lines: b.batchKeys, FootprintBytes: b.leafFP,
		Pattern: workload.Random, Base: b.base + 0x400_0000, IPC: 1.2,
	}, true
}

func (b *btreeSource) Reset() { b.leafNext = false }

// --- High intensity -------------------------------------------------

// newBackprop: neural back-propagation with a 4096x2048 weight matrix
// (32 MB): every pass streams all weights twice (forward + update) with
// few operations per element — heavy, steady DRAM traffic.
func newBackprop(seed int64) workload.Source {
	const in, out = 4096, 2048
	weights := int64(in) * int64(out) * 4
	base := regionBase("backprop")
	_ = seed
	return &phaseLoop{
		name: "backprop",
		make: func(emit func(workload.Segment)) {
			elems := int64(in) * int64(out)
			emit(workload.Segment{
				Kind: "backprop-forward", Ops: elems * 4,
				Lines: weights / workload.LineBytes, FootprintBytes: weights,
				Pattern: workload.Sequential, Base: base, IPC: 1.5,
			})
			emit(workload.Segment{
				Kind: "backprop-update", Ops: elems * 5,
				Lines: weights / workload.LineBytes, FootprintBytes: weights,
				Pattern: workload.Sequential, Base: base, IPC: 1.4,
			})
		},
	}
}

// newNW: Needleman-Wunsch sequence alignment over a 4600x4600 score
// matrix (~85 MB), processed in anti-diagonal bands; the column
// neighbour of each cell defeats row locality, modelled as strided
// touches across the matrix.
func newNW(seed int64) workload.Source {
	const n = 4600
	footprint := int64(n) * int64(n) * 4
	base := regionBase("needleman-wunsch")
	_ = seed
	return &phaseLoop{
		name: "needleman-wunsch",
		make: func(emit func(workload.Segment)) {
			// Process the matrix as ~n/16 bands; each band touches its
			// cells plus the previous band's row.
			const bandRows = 16
			bands := n / bandRows
			cellsPerBand := int64(bandRows * n)
			for band := 0; band < bands; band++ {
				emit(workload.Segment{
					Kind: "nw-band", Ops: cellsPerBand * 9,
					Lines: cellsPerBand / 12, FootprintBytes: footprint,
					Pattern: workload.Strided, StrideLines: 289, // column-wise hops
					Base: base, IPC: 1.2,
				})
			}
		},
	}
}

// phaseLoop regenerates a list of segments each cycle via make and
// replays them forever.
type phaseLoop struct {
	name string
	make func(emit func(workload.Segment))
	segs []workload.Segment
	pos  int
}

func (p *phaseLoop) Name() string { return p.name }

func (p *phaseLoop) Next() (workload.Segment, bool) {
	if p.pos >= len(p.segs) {
		p.segs = p.segs[:0]
		p.make(func(s workload.Segment) { p.segs = append(p.segs, s) })
		p.pos = 0
		if len(p.segs) == 0 {
			return workload.Segment{}, false
		}
	}
	s := p.segs[p.pos]
	p.pos++
	return s, true
}

func (p *phaseLoop) Reset() { p.pos = len(p.segs) }
