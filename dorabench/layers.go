package main

import (
	"time"

	"dora/internal/cache"
	"dora/internal/corun"
	"dora/internal/dvfs"
	"dora/internal/fidelity"
	"dora/internal/membus"
	"dora/internal/render"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/webdoc"
	"dora/internal/webgen"
	"dora/internal/workload"
)

// layerUnits lists every per-layer metric a traced run prints. A layer
// the workload never calls reports 0: it did no work.
var layerUnits = map[string]string{
	"train.cell_ms":             "ms",
	"train.fanout_idle_share":   "ratio",
	"sim.simulated_ms_per_cell": "ms",
	"sim.checkpoint_hit_ratio":  "ratio",

	"soc.step_ns_per_sim_ms":        "ns/ms",
	"cache.accessn_ns_per_ref":      "ns",
	"workload.fillblock_ns_per_ref": "ns",
	"membus.window_ns":              "ns",
	"soc.l2_mpki":                   "count",

	"soc.snapshot_us":              "us",
	"soc.restore_us":               "us",
	"soc.stepstats_ns_per_slice":   "ns",
	"soc.fastforward_ns_per_slice": "ns",
	"fidelity.observe_ns":          "ns",

	"serve.handler_ms":        "ms",
	"serve.queue_wait_ms":     "ms",
	"serve.sim_ms":            "ms",
	"serve.cache_hit_ratio":   "ratio",
	"serve.sim_executions":    "count",
	"serve.dedup_joins":       "count",
	"serve.admission_rejects": "count",

	"runcache.get_us":  "us",
	"runcache.put_us":  "us",
	"runcache.entries": "count",
	"runcache.save_ms": "ms",

	"cluster.gateway_ms":       "ms",
	"cluster.forward_ms":       "ms",
	"cluster.gateway_self_ms":  "ms",
	"cluster.pick_ns":          "ns",
	"cluster.worker_share_max": "ratio",
	"cluster.reroutes":         "count",

	"wire.load_rtt_ms":      "ms",
	"wire.overhead_ms":      "ms",
	"wire.encode_ns":        "ns",
	"wire.decode_ns":        "ns",
	"wire.frames_per_flush": "count",

	"trace_overhead_pct": "%",
}

// Iteration counts of the kernel-layer timings: enough to amortize the
// clock, small enough to keep a traced run's extra cost under a second.
const (
	layerSteps     = 200     // simulated ms per Step / slice timing
	layerSnapshots = 20      // Snapshot / Restore calls
	layerRefs      = 1 << 16 // addresses per FillBlock / AccessN timing
)

// assemble builds a machine the way sim.LoadPage does for one cell: the
// page's render plan on the browser cores, the co-runner on its core,
// the cell's operating point.
func assemble(cfg soc.Config, page webgen.Spec, k *corun.Kernel, opp dvfs.OPP, seed int64) (*soc.Machine, error) {
	doc, err := webdoc.Parse(page.HTML())
	if err != nil {
		return nil, err
	}
	plan, err := render.BuildPlan(render.DefaultConfig(), doc)
	if err != nil {
		return nil, err
	}
	m, err := soc.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	m.Prewarm(38)
	if k != nil {
		if err := m.AssignSource(sim.CoRunCore, workload.Loop(k.New(seed+1))); err != nil {
			return nil, err
		}
	}
	if err := m.AssignSource(sim.BrowserMainCore, plan.MainSource()); err != nil {
		return nil, err
	}
	if len(plan.Helper) > 0 {
		if err := m.AssignSource(sim.BrowserHelperCore, plan.HelperSource()); err != nil {
			return nil, err
		}
	}
	m.SetOPP(opp)
	return m, nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// kernelLayers times the simulator's layers one at a time on machines
// assembled like the workload's own cells, and stores the results in m.
func kernelLayers(m map[string]float64, page webgen.Spec, k *corun.Kernel, opp dvfs.OPP, seed int64) error {
	cfg := soc.NexusFive()
	mach, err := assemble(cfg, page, k, opp, seed)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < layerSteps; i++ {
		mach.Step(time.Millisecond)
	}
	m["soc.step_ns_per_sim_ms"] = nsPer(time.Since(start), layerSteps)

	if mach, err = assemble(cfg, page, k, opp, seed); err != nil {
		return err
	}
	stats := soc.SliceStats{Cores: make([]soc.CoreSliceStats, cfg.Cores)}
	start = time.Now()
	for i := 0; i < layerSteps; i++ {
		mach.StepSliceStats(&stats)
	}
	m["soc.stepstats_ns_per_slice"] = nsPer(time.Since(start), layerSteps)

	kinds := make([]string, cfg.Cores)
	for i := range kinds {
		kinds[i] = mach.CoreSegKind(i)
	}
	det := fidelity.NewDetector(fidelity.DefaultParams())
	start = time.Now()
	for i := 0; i < layerSteps; i++ {
		det.Observe(fidelity.Signature(&stats, cfg.SliceNs, kinds), false)
	}
	m["fidelity.observe_ns"] = nsPer(time.Since(start), layerSteps)

	start = time.Now()
	var snap *soc.MachineSnapshot
	for i := 0; i < layerSnapshots; i++ {
		snap = mach.Snapshot()
	}
	m["soc.snapshot_us"] = nsPer(time.Since(start), layerSnapshots) / 1e3
	start = time.Now()
	for i := 0; i < layerSnapshots; i++ {
		if err := mach.RestoreSnapshot(snap); err != nil {
			return err
		}
	}
	m["soc.restore_us"] = nsPer(time.Since(start), layerSnapshots) / 1e3

	rates := make([]soc.CoreRates, cfg.Cores)
	for i := range rates {
		rates[i] = soc.RatesFrom(stats.Cores[i])
	}
	start = time.Now()
	for i := 0; i < layerSteps; i++ {
		mach.FastForwardSlice(rates)
	}
	m["soc.fastforward_ns_per_slice"] = nsPer(time.Since(start), layerSteps)

	// Reference streams: the co-runner's first segment (the page's first
	// when the cell runs alone), replayed through the shared L2.
	src := workload.Source(nil)
	if k != nil {
		src = k.New(seed)
	} else {
		doc, err := webdoc.Parse(page.HTML())
		if err != nil {
			return err
		}
		plan, err := render.BuildPlan(render.DefaultConfig(), doc)
		if err != nil {
			return err
		}
		src = plan.MainSource()
	}
	seg, _ := src.Next()
	addrs := make([]uint64, layerRefs)
	hits := make([]bool, layerRefs)
	gen := workload.NewRefGen(seg, uint64(seed))
	l2, err := cache.New(cache.Config{Name: "l2", SizeBytes: cfg.L2SizeBytes, LineBytes: cfg.LineBytes,
		Ways: cfg.L2Ways, MaxOwners: cfg.Cores, Replacement: cfg.L2Replacement})
	if err != nil {
		return err
	}
	// The first block faults the buffers and the cache arrays in; the
	// second is timed.
	for pass := 0; pass < 2; pass++ {
		start = time.Now()
		gen.FillBlock(addrs)
		m["workload.fillblock_ns_per_ref"] = nsPer(time.Since(start), layerRefs)
		start = time.Now()
		l2.AccessN(sim.CoRunCore, addrs, hits)
		m["cache.accessn_ns_per_ref"] = nsPer(time.Since(start), layerRefs)
	}

	bus, err := membus.New(cfg.Bus, opp.BusFreqMHz)
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < layerSteps; i++ {
		for c := 0; c < cfg.Cores; c++ {
			bus.Add(c, int64(stats.Cores[c].BusTx))
		}
		if _, err := bus.EndWindow(time.Millisecond); err != nil {
			return err
		}
	}
	m["membus.window_ns"] = nsPer(time.Since(start), layerSteps)
	return nil
}
