package workload

import (
	"testing"
	"testing/quick"
)

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Sequential:   "sequential",
		Strided:      "strided",
		Random:       "random",
		PointerChase: "pointer-chase",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Pattern(42).String() == "" {
		t.Error("unknown pattern must still format")
	}
}

func TestSegmentValidate(t *testing.T) {
	ok := Segment{Kind: "x", Ops: 10, Lines: 5, FootprintBytes: 4096, Pattern: Sequential}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Segment{
		{Ops: -1},
		{Lines: -1},
		{Lines: 5, FootprintBytes: 32},
		{Lines: 1, FootprintBytes: 4096, Pattern: Strided, StrideLines: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("segment %d should fail validation", i)
		}
	}
	// Zero-line segment needs no footprint.
	if err := (Segment{Ops: 5}).Validate(); err != nil {
		t.Fatal("pure-compute segment must validate")
	}
}

func TestRefGenSequential(t *testing.T) {
	seg := Segment{FootprintBytes: 4 * LineBytes, Pattern: Sequential, Base: 0x1000}
	g := NewRefGen(seg, 1)
	want := []uint64{0x1000, 0x1040, 0x1080, 0x10C0, 0x1000}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("seq[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestRefGenStrided(t *testing.T) {
	seg := Segment{FootprintBytes: 8 * LineBytes, Pattern: Strided, StrideLines: 3, Base: 0}
	g := NewRefGen(seg, 1)
	want := []uint64{0, 3 * 64, 6 * 64, 1 * 64} // (i*3) mod 8
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("strided[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestRefGenRandomInFootprint(t *testing.T) {
	seg := Segment{FootprintBytes: 64 * LineBytes, Pattern: Random, Base: 0x10000}
	g := NewRefGen(seg, 7)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		a := g.Next()
		if a < 0x10000 || a >= 0x10000+64*LineBytes {
			t.Fatalf("address %#x outside footprint", a)
		}
		if a%LineBytes != 0 {
			t.Fatalf("address %#x not line-aligned", a)
		}
		seen[a] = true
	}
	if len(seen) < 32 {
		t.Fatalf("random pattern visited only %d/64 lines", len(seen))
	}
}

func TestRefGenDeterministic(t *testing.T) {
	seg := Segment{FootprintBytes: 1 << 20, Pattern: PointerChase, Base: 4096}
	a := NewRefGen(seg, 99)
	b := NewRefGen(seg, 99)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must yield the same stream")
		}
	}
	c := NewRefGen(seg, 100)
	diff := 0
	a2 := NewRefGen(seg, 99)
	for i := 0; i < 100; i++ {
		if a2.Next() != c.Next() {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds should decorrelate the stream")
	}
}

func TestRefGenZeroFootprint(t *testing.T) {
	g := NewRefGen(Segment{FootprintBytes: 0, Pattern: Random, Base: 64}, 1)
	if a := g.Next(); a != 64 {
		t.Fatalf("zero footprint must pin to base, got %d", a)
	}
}

func TestFromSegmentsAndReset(t *testing.T) {
	segs := []Segment{{Kind: "a", Ops: 1}, {Kind: "b", Ops: 2}}
	s := FromSegments("test", segs)
	if s.Name() != "test" {
		t.Fatal("name wrong")
	}
	got := []string{}
	for {
		seg, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, seg.Kind)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("stream = %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source must stay exhausted")
	}
	s.Reset()
	if seg, ok := s.Next(); !ok || seg.Kind != "a" {
		t.Fatal("Reset must restart the stream")
	}
}

func TestLoop(t *testing.T) {
	inner := FromSegments("k", []Segment{{Kind: "x", Ops: 1}})
	l := Loop(inner)
	if l.Name() != "k" {
		t.Fatal("loop must expose inner name")
	}
	for i := 0; i < 10; i++ {
		seg, ok := l.Next()
		if !ok || seg.Kind != "x" {
			t.Fatalf("loop iteration %d failed", i)
		}
	}
	// Looping an empty source terminates rather than spinning.
	empty := Loop(FromSegments("e", nil))
	if _, ok := empty.Next(); ok {
		t.Fatal("looped empty source must return ok=false")
	}
}

func TestIdle(t *testing.T) {
	if _, ok := Idle().Next(); ok {
		t.Fatal("Idle must produce nothing")
	}
	if Idle().Name() != "idle" {
		t.Fatal("Idle name wrong")
	}
}

// Property: every generated address is line-aligned and within
// [Base, Base+Footprint) for all patterns.
func TestRefGenBoundsProperty(t *testing.T) {
	f := func(seed uint64, rawPat uint8, rawLines uint16) bool {
		pat := Pattern(rawPat % 4)
		lines := uint64(rawLines%512) + 1
		seg := Segment{
			FootprintBytes: int64(lines) * LineBytes,
			Pattern:        pat,
			Base:           0x100000,
			StrideLines:    7,
		}
		g := NewRefGen(seg, seed)
		for i := 0; i < 200; i++ {
			a := g.Next()
			if a < seg.Base || a >= seg.Base+uint64(seg.FootprintBytes) || a%LineBytes != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequential generation covers every line of the footprint
// exactly once per wrap.
func TestSequentialCoverageProperty(t *testing.T) {
	f := func(rawLines uint8) bool {
		lines := uint64(rawLines%100) + 1
		seg := Segment{FootprintBytes: int64(lines) * LineBytes, Pattern: Sequential}
		g := NewRefGen(seg, 0)
		seen := map[uint64]int{}
		for i := uint64(0); i < lines; i++ {
			seen[g.Next()]++
		}
		if uint64(len(seen)) != lines {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFillBlockMatchesNext is the block-generation golden determinism
// test: FillBlock must emit exactly the sequence that successive Next
// calls produce — across every pattern, including footprint wrap and
// strides larger than the footprint — and leave the generator in the
// same state regardless of how the stream is split into blocks.
func TestFillBlockMatchesNext(t *testing.T) {
	segs := []Segment{
		{Kind: "seq", Pattern: Sequential, FootprintBytes: 37 * LineBytes, Base: 0x1000},
		{Kind: "stride", Pattern: Strided, StrideLines: 7, FootprintBytes: 53 * LineBytes, Base: 0x2000},
		{Kind: "stride-big", Pattern: Strided, StrideLines: 129, FootprintBytes: 53 * LineBytes, Base: 0x3000},
		{Kind: "rand", Pattern: Random, FootprintBytes: 64 * LineBytes, Base: 0x4000},
		{Kind: "chase", Pattern: PointerChase, FootprintBytes: 41 * LineBytes, Base: 0x5000},
		{Kind: "odd", Pattern: Pattern(99), FootprintBytes: 8 * LineBytes, Base: 0x6000},
	}
	for _, seg := range segs {
		t.Run(seg.Kind, func(t *testing.T) {
			const n = 1000
			ref := NewRefGenAt(seg, 42, 5)
			want := make([]uint64, n)
			for i := range want {
				want[i] = ref.Next()
			}
			blk := NewRefGenAt(seg, 42, 5)
			got := make([]uint64, 0, n)
			buf := make([]uint64, 0)
			for _, sz := range []int{1, 3, 64, 256, 129, 7, 540} {
				buf = append(buf[:0], make([]uint64, sz)...)
				blk.FillBlock(buf)
				got = append(got, buf...)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("touch %d: FillBlock %#x, Next %#x", i, got[i], want[i])
				}
			}
			// The generator must also resume identically after blocks.
			if a, b := blk.Next(), ref.Next(); a != b {
				t.Fatalf("post-block Next diverges: %#x vs %#x", a, b)
			}
		})
	}
}

// TestReinitMatchesNew pins the allocation-free generator reuse path.
func TestReinitMatchesNew(t *testing.T) {
	seg := Segment{Pattern: Strided, StrideLines: 3, FootprintBytes: 17 * LineBytes, Base: 0x9000}
	fresh := NewRefGenAt(seg, 7, 11)
	var reused RefGen
	reused.Reinit(Segment{Pattern: Random, FootprintBytes: 4 * LineBytes}, 1, 0) // dirty it first
	reused.Next()
	reused.Reinit(seg, 7, 11)
	for i := 0; i < 200; i++ {
		if a, b := fresh.Next(), reused.Next(); a != b {
			t.Fatalf("touch %d: fresh %#x reused %#x", i, a, b)
		}
	}
}

func TestRefGenSkipMatchesNext(t *testing.T) {
	segs := []Segment{
		{FootprintBytes: 37 * LineBytes, Pattern: Sequential, Base: 0x1000},
		{FootprintBytes: 64 * LineBytes, Pattern: Strided, StrideLines: 5, Base: 0x2000},
		{FootprintBytes: 128 * LineBytes, Pattern: Random, Base: 0x3000},
		{FootprintBytes: 256 * LineBytes, Pattern: PointerChase, Base: 0x4000},
	}
	for _, seg := range segs {
		for _, n := range []uint64{0, 1, 2, 7, 63, 1000, 123457} {
			a := NewRefGen(seg, 42)
			b := NewRefGen(seg, 42)
			for i := uint64(0); i < n; i++ {
				a.Next()
			}
			b.Skip(n)
			for i := 0; i < 16; i++ {
				if ga, gb := a.Next(), b.Next(); ga != gb {
					t.Fatalf("%s: after skip %d, touch %d = %#x, want %#x",
						seg.Pattern, n, i, gb, ga)
				}
			}
			if a.Pos() != b.Pos() {
				t.Fatalf("%s: skip %d pos = %d, want %d", seg.Pattern, n, b.Pos(), a.Pos())
			}
		}
	}
}
