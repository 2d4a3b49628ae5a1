// Package render models the browser rendering engine: it turns a
// parsed HTML document into the compute/memory work of loading the
// page. Following the execution flow in the paper's Section II-A, the
// pipeline is parse (tokenize + DOM build + script execution), style
// (CSS rule resolution over the DOM), layout (geometry over the render
// tree), and paint (rasterization) — with image decoding running on the
// browser's second thread, matching the paper's dual-core Firefox
// configuration.
//
// The engine derives all work from the document itself (node counts,
// attribute counts, text volume, declared image payloads), so the
// relationship the paper's regression models exploit — load time
// dominated by DOM nodes, class/href attributes, a/div tags — emerges
// from the same mechanism rather than being hard-coded.
package render

import (
	"errors"
	"strconv"

	"dora/internal/webdoc"
	"dora/internal/workload"
)

// Region base addresses keep the browser's data structures from
// aliasing each other (or the co-runners) in the cache simulation.
const (
	htmlBase   = 0x1000_0000
	domBase    = 0x2000_0000
	styleBase  = 0x3000_0000
	layoutBase = 0x4000_0000
	paintBase  = 0x5000_0000
	imageBase  = 0x6000_0000
	heapBase   = 0x7000_0000
)

// Config holds the engine's cost model constants. Defaults are
// calibrated so the webgen corpus reproduces the paper's Table III load
// time classes on the simulated SoC (low pages < 2 s, high pages > 2 s,
// alone at 2.265 GHz).
type Config struct {
	// Per-phase instruction costs.
	ParseOpsPerNode   float64
	ParseOpsPerByte   float64 // per HTML source byte
	ScriptOpsPerByte  float64 // per inline script byte (execution)
	StyleOpsPerNode   float64
	StyleOpsPerRule   float64 // per parsed style rule (parsing cost)
	StyleOpsPerMatch  float64 // per element-rule selector match
	StyleOpsPerDecl   float64 // per declaration applied
	LayoutOpsPerNode  float64
	LayoutDepthFactor float64 // extra layout cost per unit tree depth
	PaintOpsPerNode   float64
	DecodeOpsPerByte  float64 // image decoding (helper thread)

	// Memory behaviour: instructions per cache-line touch, per phase.
	ParseOpsPerLine  float64
	ScriptOpsPerLine float64
	StyleOpsPerLine  float64
	LayoutOpsPerLine float64
	PaintOpsPerLine  float64
	DecodeOpsPerLine float64

	// Data structure sizing.
	DOMNodeBytes    int64 // DOM footprint per node
	LayoutNodeBytes int64 // render tree footprint per node
	StyleRuleBytes  int64 // style structure footprint per rule
	PaintTileBytes  int64 // rasterizer working set (tile buffers)
	ScriptHeapScale int64 // JS heap footprint per script byte

	// Per-phase IPC when not memory stalled.
	ParseIPC, ScriptIPC, StyleIPC, LayoutIPC, PaintIPC, DecodeIPC float64

	// ChunkNodes controls segment granularity: one segment per this
	// many DOM nodes, so governors observe a stream, not one blob.
	ChunkNodes int
}

// DefaultConfig returns the calibrated cost model.
func DefaultConfig() Config {
	return Config{
		ParseOpsPerNode:   150_000,
		ParseOpsPerByte:   30,
		ScriptOpsPerByte:  3_000,
		StyleOpsPerNode:   237_000,
		StyleOpsPerRule:   30_000,
		StyleOpsPerMatch:  30_000,
		StyleOpsPerDecl:   3_000,
		LayoutOpsPerNode:  450_000,
		LayoutDepthFactor: 0.012,
		PaintOpsPerNode:   350_000,
		DecodeOpsPerByte:  120,

		ParseOpsPerLine:  180,
		ScriptOpsPerLine: 300,
		StyleOpsPerLine:  200,
		LayoutOpsPerLine: 110,
		PaintOpsPerLine:  160,
		DecodeOpsPerLine: 100,

		DOMNodeBytes:    320,
		LayoutNodeBytes: 256,
		StyleRuleBytes:  512,
		PaintTileBytes:  512 << 10,
		ScriptHeapScale: 4,

		ParseIPC:  1.6,
		ScriptIPC: 1.3,
		StyleIPC:  1.5,
		LayoutIPC: 1.2,
		PaintIPC:  1.8,
		DecodeIPC: 1.9,

		ChunkNodes: 96,
	}
}

// Plan is the derived work of loading one page.
type Plan struct {
	Features webdoc.Features
	// StyleMatches summarizes the selector-matching pass that costed
	// the style phase.
	StyleMatches webdoc.MatchStats
	// Main is the critical-path render thread's segment stream.
	Main []workload.Segment
	// Helper is the second browser thread (image decoding).
	Helper []workload.Segment
	// ImageBytes is the total decoded image payload.
	ImageBytes int64
}

// BuildPlan derives the load workload for a parsed document.
func BuildPlan(cfg Config, doc *webdoc.Document) (*Plan, error) {
	if doc == nil || doc.Root == nil {
		return nil, errors.New("render: nil document")
	}
	if cfg.ChunkNodes <= 0 {
		return nil, errors.New("render: ChunkNodes must be positive")
	}
	f := webdoc.Extract(doc)
	if f.DOMNodes == 0 {
		return nil, errors.New("render: empty document")
	}

	scriptBytes := int64(0)
	imageBytes := int64(0)
	doc.Root.Walk(func(n *webdoc.Node) {
		switch {
		case n.Type == webdoc.ElementNode && n.Tag == "script":
			for _, c := range n.Children {
				if c.Type == webdoc.TextNode {
					scriptBytes += int64(len(c.Text))
				}
			}
		case n.Type == webdoc.ElementNode && n.Tag == "img":
			if v, ok := n.Attr("data-kb"); ok {
				if kb, err := strconv.Atoi(v); err == nil && kb > 0 {
					imageBytes += int64(kb) << 10
				}
			} else {
				imageBytes += 24 << 10 // undeclared images: nominal 24 KB
			}
		}
	})
	// Parse the page's stylesheets and run real selector matching; the
	// match statistics drive the style phase's cost, as in an actual
	// style-resolution pass.
	sheet := webdoc.ParseCSS(webdoc.StyleText(doc))
	matchStats := webdoc.NewRuleIndex(sheet).MatchDocument(doc)
	styleRules := int64(len(sheet.Rules))

	nodes := int64(f.DOMNodes)
	domFootprint := nodes * cfg.DOMNodeBytes
	layoutFootprint := nodes * cfg.LayoutNodeBytes
	styleFootprint := styleRules*cfg.StyleRuleBytes + nodes*64
	heapFootprint := max(scriptBytes*cfg.ScriptHeapScale, 64<<10)

	p := &Plan{Features: f, ImageBytes: imageBytes, StyleMatches: matchStats}

	// --- Parse phase: stream the source, pointer-build the DOM.
	parseOps := int64(cfg.ParseOpsPerNode*float64(nodes) + cfg.ParseOpsPerByte*float64(doc.Bytes))
	p.emit(&p.Main, cfg, "parse", parseOps, cfg.ParseOpsPerLine, workload.Segment{
		Pattern: workload.PointerChase, Base: domBase, FootprintBytes: domFootprint, IPC: cfg.ParseIPC,
	})
	// Source streaming rides along: sequential over the HTML buffer.
	p.Main = append(p.Main, workload.Segment{
		Kind: "parse-stream", Ops: int64(doc.Bytes) / 8,
		Lines: int64(doc.Bytes) / workload.LineBytes, FootprintBytes: max(int64(doc.Bytes), workload.LineBytes),
		Pattern: workload.Sequential, Base: htmlBase, IPC: cfg.ParseIPC,
	})

	// --- Script execution: hot JS heap, random access.
	if scriptBytes > 0 {
		scriptOps := int64(cfg.ScriptOpsPerByte * float64(scriptBytes))
		p.emit(&p.Main, cfg, "script", scriptOps, cfg.ScriptOpsPerLine, workload.Segment{
			Pattern: workload.Random, Base: heapBase, FootprintBytes: heapFootprint, IPC: cfg.ScriptIPC,
		})
	}

	// --- Style resolution: DOM chase + random probes of rule tables,
	// costed by the measured match volume.
	styleOps := int64(cfg.StyleOpsPerNode*float64(nodes) +
		cfg.StyleOpsPerRule*float64(styleRules) +
		cfg.StyleOpsPerMatch*float64(matchStats.Matches) +
		cfg.StyleOpsPerDecl*float64(matchStats.Declarations))
	p.emit(&p.Main, cfg, "style", styleOps, cfg.StyleOpsPerLine, workload.Segment{
		Pattern: workload.Random, Base: styleBase, FootprintBytes: max(styleFootprint, 64<<10), IPC: cfg.StyleIPC,
	})

	// --- Layout: pointer chase over the render tree, depth-weighted.
	layoutOps := int64(cfg.LayoutOpsPerNode * float64(nodes) * (1 + cfg.LayoutDepthFactor*float64(f.MaxDepth)))
	p.emit(&p.Main, cfg, "layout", layoutOps, cfg.LayoutOpsPerLine, workload.Segment{
		Pattern: workload.PointerChase, Base: layoutBase, FootprintBytes: layoutFootprint, IPC: cfg.LayoutIPC,
	})

	// --- Paint: tile-based rasterization (L2-resident working set).
	paintOps := int64(cfg.PaintOpsPerNode * float64(nodes))
	p.emit(&p.Main, cfg, "paint", paintOps, cfg.PaintOpsPerLine, workload.Segment{
		Pattern: workload.Sequential, Base: paintBase, FootprintBytes: cfg.PaintTileBytes, IPC: cfg.PaintIPC,
	})

	// --- Helper thread: image decoding, streaming the payload.
	if imageBytes > 0 {
		decodeOps := int64(cfg.DecodeOpsPerByte * float64(imageBytes))
		p.emit(&p.Helper, cfg, "decode", decodeOps, cfg.DecodeOpsPerLine, workload.Segment{
			Pattern: workload.Sequential, Base: imageBase, FootprintBytes: imageBytes, IPC: cfg.DecodeIPC,
		})
	}
	return p, nil
}

// emit appends phase work chunked into ChunkNodes-sized segments.
func (p *Plan) emit(dst *[]workload.Segment, cfg Config, kind string, totalOps int64, opsPerLine float64, tmpl workload.Segment) {
	if totalOps <= 0 {
		return
	}
	totalLines := int64(float64(totalOps) / opsPerLine)
	chunks := int(int64(p.Features.DOMNodes)/int64(cfg.ChunkNodes)) + 1
	opsPer := totalOps / int64(chunks)
	linesPer := totalLines / int64(chunks)
	for i := 0; i < chunks; i++ {
		ops, lines := opsPer, linesPer
		if i == chunks-1 { // remainder in the last chunk
			ops = totalOps - opsPer*int64(chunks-1)
			lines = totalLines - linesPer*int64(chunks-1)
		}
		if ops <= 0 && lines <= 0 {
			continue
		}
		s := tmpl
		s.Kind = kind
		s.Ops = ops
		s.Lines = lines
		if s.FootprintBytes < workload.LineBytes {
			s.FootprintBytes = workload.LineBytes
		}
		*dst = append(*dst, s)
	}
}

// MainSource returns the critical-path thread as a workload source.
func (p *Plan) MainSource() workload.Source {
	return workload.FromSegments("render-main", p.Main)
}

// HelperSource returns the decode thread as a workload source (empty
// for pages without images).
func (p *Plan) HelperSource() workload.Source {
	return workload.FromSegments("render-helper", p.Helper)
}
