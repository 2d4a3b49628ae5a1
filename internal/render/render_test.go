package render

import (
	"testing"

	"dora/internal/webdoc"
	"dora/internal/webgen"
	"dora/internal/workload"
)

func planFor(t *testing.T, page string) *Plan {
	t.Helper()
	spec, err := webgen.ByName(page)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := webdoc.Parse(spec.HTML())
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(DefaultConfig(), doc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildPlanErrors(t *testing.T) {
	if _, err := BuildPlan(DefaultConfig(), nil); err == nil {
		t.Fatal("nil document must error")
	}
	cfg := DefaultConfig()
	cfg.ChunkNodes = 0
	doc, _ := webdoc.Parse("<div>x</div>")
	if _, err := BuildPlan(cfg, doc); err == nil {
		t.Fatal("zero chunk size must error")
	}
	empty, _ := webdoc.Parse("   ")
	if _, err := BuildPlan(DefaultConfig(), empty); err == nil {
		t.Fatal("empty document must error")
	}
}

func TestPlanPhases(t *testing.T) {
	p := planFor(t, "Amazon")
	phases := map[string]bool{}
	for _, s := range p.Main {
		phases[s.Kind] = true
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid segment %+v: %v", s, err)
		}
	}
	for _, want := range []string{"parse", "parse-stream", "script", "style", "layout", "paint"} {
		if !phases[want] {
			t.Fatalf("missing phase %q (got %v)", want, phases)
		}
	}
	if len(p.Helper) == 0 {
		t.Fatal("Amazon has images; helper thread must have decode work")
	}
	for _, s := range p.Helper {
		if s.Kind != "decode" {
			t.Fatalf("helper segment kind = %q", s.Kind)
		}
	}
}

func TestPhaseOrdering(t *testing.T) {
	// Pipeline order: all parse work precedes style, style precedes
	// layout, layout precedes paint.
	p := planFor(t, "Reddit")
	rank := map[string]int{"parse": 0, "parse-stream": 0, "script": 1, "style": 2, "layout": 3, "paint": 4}
	last := -1
	for _, s := range p.Main {
		r, ok := rank[s.Kind]
		if !ok {
			t.Fatalf("unknown phase %q", s.Kind)
		}
		if r < last {
			t.Fatalf("phase %q out of order", s.Kind)
		}
		last = r
	}
}

// ops sums the instructions of one thread's segment stream.
func ops(segs []workload.Segment) int64 {
	var n int64
	for _, s := range segs {
		n += s.Ops
	}
	return n
}

func TestWorkScalesWithComplexity(t *testing.T) {
	small := planFor(t, "Alipay")
	big := planFor(t, "Aliexpress")
	if ops(big.Main) < 4*ops(small.Main) {
		t.Fatalf("Aliexpress main ops %d not >> Alipay %d", ops(big.Main), ops(small.Main))
	}
	if ops(big.Helper) == 0 {
		t.Fatal("Aliexpress helper thread has no work")
	}
}

func TestImageHeavyPageLoadsHelper(t *testing.T) {
	imgur := planFor(t, "Imgur")
	twitter := planFor(t, "Twitter")
	imgurHelper, twitterHelper := ops(imgur.Helper), ops(twitter.Helper)
	if imgurHelper < 3*twitterHelper {
		t.Fatalf("Imgur helper %d not >> Twitter helper %d", imgurHelper, twitterHelper)
	}
	if imgur.ImageBytes < 20<<20 {
		t.Fatalf("Imgur decoded payload = %d bytes, implausibly small", imgur.ImageBytes)
	}
}

func TestOpsAndLinesConsistency(t *testing.T) {
	p := planFor(t, "MSN")
	for _, s := range append(append([]workload.Segment{}, p.Main...), p.Helper...) {
		if s.Ops < 0 || s.Lines < 0 {
			t.Fatalf("negative work in %+v", s)
		}
		if s.Lines > 0 && s.FootprintBytes < workload.LineBytes {
			t.Fatalf("footprint too small in %+v", s)
		}
	}
	// Lines must be in a plausible ops/line band (50..1000) overall.
	var ops, lines int64
	for _, s := range p.Main {
		ops += s.Ops
		lines += s.Lines
	}
	ratio := float64(ops) / float64(lines)
	if ratio < 50 || ratio > 1000 {
		t.Fatalf("ops/line = %v, outside plausible band", ratio)
	}
}

func TestChunking(t *testing.T) {
	// Segments must be numerous enough for 100 ms governor intervals to
	// observe phase progress.
	p := planFor(t, "ESPN")
	if len(p.Main) < 50 {
		t.Fatalf("only %d main segments; too coarse for interval control", len(p.Main))
	}
	// Total ops preserved across chunking: compare two chunk sizes.
	spec, _ := webgen.ByName("ESPN")
	doc, _ := webdoc.Parse(spec.HTML())
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.ChunkNodes = 17
	a, _ := BuildPlan(cfgA, doc)
	b, _ := BuildPlan(cfgB, doc)
	if ops(a.Main) != ops(b.Main) {
		t.Fatalf("chunking changed total ops: %d vs %d", ops(a.Main), ops(b.Main))
	}
}

func TestSources(t *testing.T) {
	p := planFor(t, "CNN")
	src := p.MainSource()
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != len(p.Main) {
		t.Fatalf("source yielded %d segments, plan has %d", n, len(p.Main))
	}
	src.Reset()
	if _, ok := src.Next(); !ok {
		t.Fatal("reset source must restart")
	}
	if p.HelperSource().Name() != "render-helper" {
		t.Fatal("helper source name wrong")
	}
}

func TestDeterministicPlans(t *testing.T) {
	a := planFor(t, "BBC")
	b := planFor(t, "BBC")
	if len(a.Main) != len(b.Main) || ops(a.Main) != ops(b.Main) {
		t.Fatal("plans must be deterministic")
	}
	for i := range a.Main {
		if a.Main[i] != b.Main[i] {
			t.Fatalf("segment %d differs", i)
		}
	}
}

func TestUndeclaredImageFallback(t *testing.T) {
	doc, _ := webdoc.Parse(`<div><img src="x.jpg"></div>`)
	p, err := BuildPlan(DefaultConfig(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if p.ImageBytes != 24<<10 {
		t.Fatalf("undeclared image bytes = %d, want 24KB nominal", p.ImageBytes)
	}
}

func TestHighComplexityPagesHaveMoreWork(t *testing.T) {
	// Every high-complexity page must out-work every low-complexity
	// page on the main thread — the basis of Table III's classes.
	var lowMax, highMin int64 = 0, 1 << 62
	var lowName, highName string
	for _, s := range webgen.Specs() {
		p := planFor(t, s.Name)
		// Imgur's complexity is carried by its helper thread (image
		// decode), so compare effective critical path: max(main, helper).
		work := max(ops(p.Main), ops(p.Helper))
		if s.Class == webgen.LowComplexity && work > lowMax {
			lowMax, lowName = work, s.Name
		}
		if s.Class == webgen.HighComplexity && work < highMin {
			highMin, highName = work, s.Name
		}
	}
	if highMin <= lowMax {
		t.Fatalf("class overlap: low page %s (%d ops) >= high page %s (%d ops)",
			lowName, lowMax, highName, highMin)
	}
}

func TestStyleCostDrivenByMatching(t *testing.T) {
	// Two documents with identical node counts but different rule-match
	// volumes must differ in style-phase work.
	mk := func(matching bool) int64 {
		cls := "nomatch"
		if matching {
			cls = "hot"
		}
		html := `<style>.hot{margin:1px;padding:2px}</style><body>`
		for i := 0; i < 200; i++ {
			html += `<div class="` + cls + `">x</div>`
		}
		html += "</body>"
		doc, err := webdoc.Parse(html)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildPlan(DefaultConfig(), doc)
		if err != nil {
			t.Fatal(err)
		}
		var styleOps int64
		for _, s := range p.Main {
			if s.Kind == "style" {
				styleOps += s.Ops
			}
		}
		if matching && p.StyleMatches.Matches != 200 {
			t.Fatalf("matches = %d, want 200", p.StyleMatches.Matches)
		}
		return styleOps
	}
	hot, cold := mk(true), mk(false)
	if hot <= cold {
		t.Fatalf("matching page style ops %d must exceed non-matching %d", hot, cold)
	}
}

func TestCorpusStyleMatchVolume(t *testing.T) {
	// Generated pages carry one matching class rule per classed element;
	// the match pass must find a substantial volume.
	p := planFor(t, "Reddit")
	if p.StyleMatches.Matches < p.Features.Elements/4 {
		t.Fatalf("matches = %d for %d elements; corpus styling broken",
			p.StyleMatches.Matches, p.Features.Elements)
	}
	if p.StyleMatches.Declarations < p.StyleMatches.Matches {
		t.Fatal("webgen rules carry 3 declarations each")
	}
}
