// Package workload defines the execution abstraction shared by the web
// browser rendering engine and the co-scheduled kernels: a stream of
// Segments, each describing a burst of computation (instructions) and
// the cache-line touches it makes over a memory region with a
// characteristic access pattern. The SoC simulator consumes segments,
// charging compute time against the core clock and replaying the line
// touches through the cache hierarchy.
package workload

import (
	"errors"
	"fmt"
)

// LineBytes is the cache-line granularity segments are expressed in.
const LineBytes = 64

// Pattern describes how a segment touches its footprint.
type Pattern int

const (
	// Sequential walks lines in address order (streaming).
	Sequential Pattern = iota
	// Strided jumps a fixed number of lines between touches.
	Strided
	// Random touches uniformly random lines in the footprint.
	Random
	// PointerChase follows a data-dependent permutation of the
	// footprint's lines (worst locality, serialized misses).
	PointerChase
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case PointerChase:
		return "pointer-chase"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Segment is one burst of work.
type Segment struct {
	// Kind labels the generating phase ("layout", "bfs-level", ...).
	Kind string
	// Ops is the number of instructions in the burst.
	Ops int64
	// Lines is the number of cache-line touches presented to the
	// hierarchy while executing the burst.
	Lines int64
	// FootprintBytes is the size of the region the touches fall in.
	FootprintBytes int64
	// Pattern is the address pattern of the touches.
	Pattern Pattern
	// Base is the region's base address (distinct per data structure
	// so different structures do not alias in the caches).
	Base uint64
	// StrideLines is the line stride for Strided patterns (>=1).
	StrideLines int64
	// IPC is the core's instructions-per-cycle when not stalled on
	// memory for this burst (workload-dependent; <=0 means default).
	IPC float64
	// IdleNs is wall-clock idle time after the burst (frame gaps,
	// synchronization waits); it lowers the core's utilization.
	IdleNs int64
}

// Validate reports structural problems in a segment.
func (s Segment) Validate() error {
	if s.Ops < 0 || s.Lines < 0 || s.IdleNs < 0 {
		return errors.New("workload: negative ops, lines, or idle time")
	}
	if s.Lines > 0 && s.FootprintBytes < LineBytes {
		return fmt.Errorf("workload: segment %q touches lines but footprint %d < one line", s.Kind, s.FootprintBytes)
	}
	if s.Pattern == Strided && s.StrideLines <= 0 {
		return errors.New("workload: strided segment requires StrideLines >= 1")
	}
	return nil
}

// Source produces a stream of segments. Next returns ok=false when the
// workload has completed; infinite workloads (co-runners) never do.
type Source interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next segment.
	Next() (Segment, bool)
	// Reset restarts the stream from the beginning.
	Reset()
}

// RefGen deterministically generates the line-touch addresses of one
// segment. The i-th call to Next after construction yields the address
// of the i-th (possibly sampled) touch.
type RefGen struct {
	seg    Segment
	lines  uint64 // footprint size in lines
	pos    uint64 // sequential/strided position
	lcg    uint64 // random/pointer-chase state
	stride uint64
}

// NewRefGen builds a generator for seg; seed decorrelates random
// patterns across segments. Sequential and strided walks start at
// position 0; use NewRefGenAt to continue a walk across segments.
func NewRefGen(seg Segment, seed uint64) *RefGen {
	return NewRefGenAt(seg, seed, 0)
}

// NewRefGenAt builds a generator whose sequential/strided walk begins
// at the given position, so consecutive segments over the same region
// keep advancing through it instead of retouching its head.
func NewRefGenAt(seg Segment, seed uint64, startPos uint64) *RefGen {
	g := &RefGen{}
	g.Reinit(seg, seed, startPos)
	return g
}

// Reinit re-targets an existing generator at a new segment, exactly as
// NewRefGenAt would but without allocating — the simulator's quantum
// loop keeps one RefGen per core and reinitializes it per segment.
func (g *RefGen) Reinit(seg Segment, seed uint64, startPos uint64) {
	lines := uint64(seg.FootprintBytes) / LineBytes
	if lines == 0 {
		lines = 1
	}
	stride := uint64(1)
	if seg.Pattern == Strided && seg.StrideLines > 0 {
		stride = uint64(seg.StrideLines)
	}
	*g = RefGen{
		seg:    seg,
		lines:  lines,
		pos:    startPos,
		lcg:    seed*2862933555777941757 + 3037000493,
		stride: stride,
	}
}

// Pos returns the current sequential/strided walk position.
func (g *RefGen) Pos() uint64 { return g.pos }

// Next returns the byte address (line-aligned) of the next touch.
func (g *RefGen) Next() uint64 {
	var lineIdx uint64
	switch g.seg.Pattern {
	case Sequential:
		lineIdx = g.pos % g.lines
		g.pos++
	case Strided:
		lineIdx = (g.pos * g.stride) % g.lines
		g.pos++
	case Random:
		g.lcg = g.lcg*6364136223846793005 + 1442695040888963407
		lineIdx = (g.lcg >> 17) % g.lines
	case PointerChase:
		// Full-period LCG over the footprint: every line visited once
		// per cycle, in an address-scrambled order — a deterministic
		// stand-in for chasing a shuffled linked list.
		g.lcg = g.lcg*6364136223846793005 + 1442695040888963407
		lineIdx = (g.lcg >> 11) % g.lines
	default:
		lineIdx = 0
	}
	return g.seg.Base + lineIdx*LineBytes
}

// FillBlock fills dst with the addresses of the next len(dst) touches,
// exactly as len(dst) successive Next calls would. The switch on the
// access pattern is hoisted out of the per-touch loop and the
// sequential/strided walks replace the per-touch modulo with an
// incremental wrap, so bulk generation into a caller-owned scratch
// buffer is several times cheaper than one call per reference.
func (g *RefGen) FillBlock(dst []uint64) {
	base, lines := g.seg.Base, g.lines
	switch g.seg.Pattern {
	case Sequential:
		p := g.pos % lines
		for i := range dst {
			dst[i] = base + p*LineBytes
			p++
			if p == lines {
				p = 0
			}
		}
		g.pos += uint64(len(dst))
	case Strided:
		// p tracks (pos*stride) % lines incrementally: adding the
		// reduced stride and wrapping once is equivalent because both
		// summands are already < lines.
		p := (g.pos * g.stride) % lines
		step := g.stride % lines
		for i := range dst {
			dst[i] = base + p*LineBytes
			p += step
			if p >= lines {
				p -= lines
			}
		}
		g.pos += uint64(len(dst))
	case Random:
		lcg := g.lcg
		for i := range dst {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			dst[i] = base + ((lcg>>17)%lines)*LineBytes
		}
		g.lcg = lcg
	case PointerChase:
		lcg := g.lcg
		for i := range dst {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			dst[i] = base + ((lcg>>11)%lines)*LineBytes
		}
		g.lcg = lcg
	default:
		for i := range dst {
			dst[i] = base
		}
	}
}

// Skip advances the generator by n touches without producing their
// addresses, exactly as n discarded Next calls would. Sequential and
// strided walks advance their position directly; the LCG-backed
// patterns jump the generator state in O(log n) by composing the
// affine update map with itself (x -> a*x + c applied n times is
// x -> a^n*x + c*(a^(n-1) + ... + 1), both computable by repeated
// squaring in the same mod-2^64 arithmetic the per-touch path uses).
// The sampled-fidelity fast-forward path uses Skip to keep reference
// streams bit-aligned with exact mode across extrapolated slices.
func (g *RefGen) Skip(n uint64) {
	switch g.seg.Pattern {
	case Sequential, Strided:
		g.pos += n
	case Random, PointerChase:
		const (
			mulA = 6364136223846793005
			addC = 1442695040888963407
		)
		// Compose (a, c) where step(x) = a*x + c, n times.
		var accA, accC uint64 = 1, 0
		stepA, stepC := uint64(mulA), uint64(addC)
		for n > 0 {
			if n&1 == 1 {
				// acc = step ∘ acc : x -> stepA*(accA*x + accC) + stepC
				accA, accC = stepA*accA, stepA*accC+stepC
			}
			stepA, stepC = stepA*stepA, stepA*stepC+stepC
			n >>= 1
		}
		g.lcg = accA*g.lcg + accC
	}
}

// sliceSource replays a fixed segment list once.
type sliceSource struct {
	name string
	segs []Segment
	pos  int
}

// FromSegments wraps a fixed segment list as a finite Source.
func FromSegments(name string, segs []Segment) Source {
	return &sliceSource{name: name, segs: segs}
}

func (s *sliceSource) Name() string { return s.name }

func (s *sliceSource) Next() (Segment, bool) {
	if s.pos >= len(s.segs) {
		return Segment{}, false
	}
	seg := s.segs[s.pos]
	s.pos++
	return seg, true
}

func (s *sliceSource) Reset() { s.pos = 0 }

// loopSource repeats an underlying finite source forever.
type loopSource struct {
	inner Source
}

// Loop returns a Source that restarts inner whenever it completes —
// used for co-scheduled applications that run for the whole experiment.
func Loop(inner Source) Source { return &loopSource{inner: inner} }

func (l *loopSource) Name() string { return l.inner.Name() }

func (l *loopSource) Next() (Segment, bool) {
	if seg, ok := l.inner.Next(); ok {
		return seg, true
	}
	l.inner.Reset()
	seg, ok := l.inner.Next()
	return seg, ok // ok=false only if inner is empty
}

func (l *loopSource) Reset() { l.inner.Reset() }

// Idle returns a Source that produces nothing — a parked core.
func Idle() Source { return FromSegments("idle", nil) }
