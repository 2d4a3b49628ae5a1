package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/dvfs"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/train"
	"dora/internal/webgen"
)

// Campaign grid shape. The two pages simulate in about the same host
// time, so a grid costs nearly the same whatever the seed; the seed
// picks the simulation seed and the page order.
var (
	campaignPages = []string{"Twitter", "360"}
	campaignFreqs = []int{960, 1574}
)

const (
	campaignWorkers = 2
	// campaignWarmup is train.Config's default warmup, spelled out
	// because simulated time counts it.
	campaignWarmup = 300 * time.Millisecond
	// Nominal host seconds per grid, which turn --seconds into a fixed
	// grid count.
	exactGridSeconds   = 1.75
	sampledGridSeconds = 0.26
	// The sampled-mode error budget per observable (DESIGN.md §10).
	sampledMeanBudgetPct = 2
	sampledMaxBudgetPct  = 5
)

//go:embed testdata/reference.json
var referenceJSON []byte

// referenceFile is the committed expected output for defaultSeed.
type referenceFile struct {
	Seed int64   `json:"seed"`
	Grid gridRef `json:"grid"`
	// Fresh holds the sha256 of each serve-fresh response body, in
	// request order.
	Fresh []string `json:"serve_fresh_sha256"`
}

// gridRef is an exact campaign's output: a hash over every observation
// and the three observables the sampled error is measured on.
type gridRef struct {
	SHA256 string    `json:"sha256"`
	Cells  []cellObs `json:"cells"`
}

type cellObs struct {
	LoadS  float64 `json:"load_s"`
	PowerW float64 `json:"power_w"`
	TempC  float64 `json:"temp_c"`
}

func loadReference() (referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("testdata/reference.json: %w", err)
	}
	if ref.Seed != defaultSeed {
		return ref, fmt.Errorf("testdata/reference.json is for seed %d, want %d", ref.Seed, defaultSeed)
	}
	return ref, nil
}

func gridOf(obs []train.Observation) (gridRef, error) {
	b, err := json.Marshal(obs)
	if err != nil {
		return gridRef{}, err
	}
	sum := sha256.Sum256(b)
	g := gridRef{SHA256: hex.EncodeToString(sum[:])}
	for _, o := range obs {
		g.Cells = append(g.Cells, cellObs{o.LoadTimeS, o.PowerW, o.AvgTempC})
	}
	return g, nil
}

// sampledError returns, over the three observables, the largest mean and
// the largest single-cell relative error of got against want, in percent,
// and whether every observable is inside the budget.
func sampledError(got, want []cellObs) (meanPct, maxPct float64, ok bool) {
	if len(got) != len(want) || len(want) == 0 {
		return math.Inf(1), math.Inf(1), false
	}
	ok = true
	pick := []func(cellObs) float64{
		func(c cellObs) float64 { return c.LoadS },
		func(c cellObs) float64 { return c.PowerW },
		func(c cellObs) float64 { return c.TempC },
	}
	for _, f := range pick {
		var sum, worst float64
		for i := range want {
			e := math.Abs(f(got[i])-f(want[i])) / math.Abs(f(want[i])) * 100
			sum += e
			worst = math.Max(worst, e)
		}
		m := sum / float64(len(want))
		ok = ok && m <= sampledMeanBudgetPct && worst <= sampledMaxBudgetPct
		meanPct, maxPct = math.Max(meanPct, m), math.Max(maxPct, worst)
	}
	return meanPct, maxPct, ok
}

// campaign runs train.Campaign over one seed-derived grid, a fixed
// number of times.
type campaign struct {
	sampled bool
	seed    int64
	grids   int
	cfg     train.Config
	ref     gridRef
	// replayed runs every grid through replay, traced or not, so that a
	// traced run's two passes differ only in their spans.
	replayed bool

	// Filled by the traced replay.
	mu         sync.Mutex
	coRunMPKI  []float64
	ckptRatios []float64
}

func newCampaign(sampled bool, seed int64, seconds float64, replayed bool) *campaign {
	per := exactGridSeconds
	if sampled {
		per = sampledGridSeconds
	}
	rng := rand.New(rand.NewSource(seed))
	pages := append([]string(nil), campaignPages...)
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	c := &campaign{sampled: sampled, seed: seed, grids: int(math.Max(1, math.Round(seconds/per))), replayed: replayed}
	c.cfg = train.Config{
		SoC:      soc.NexusFive(),
		Pages:    pages,
		FreqsMHz: campaignFreqs,
		Seed:     rng.Int63n(1 << 40),
		Workers:  campaignWorkers,
	}
	if sampled {
		c.cfg.Fidelity = fidelity.Sampled
	}
	return c
}

func (c *campaign) why() string {
	if c.sampled {
		return "sampled fidelity on the same grid: phase detection, fast-forward and checkpoints carry the work, and the error against the exact reference shows what speed costs in accuracy"
	}
	return "an exact fixed-frequency training grid: the simulation kernel does all the work and every observation must reproduce the reference bit for bit"
}

// setup warms the simulator with a one-cell campaign, so heap growth and
// first-touch page faults land in set-up rather than in the first grid.
// The cell is the same for every seed.
func (c *campaign) setup(*tracer) error {
	warm := c.cfg
	warm.Pages, warm.Intensities, warm.FreqsMHz, warm.Workers, warm.Seed =
		campaignPages[:1], []corun.Intensity{corun.None}, campaignFreqs[:1], 1, 0
	_, err := train.Campaign(warm)
	return err
}

func (c *campaign) close() {}

func (c *campaign) reference() error {
	if c.seed == defaultSeed {
		ref, err := loadReference()
		if err != nil {
			return err
		}
		c.ref = ref.Grid
		return nil
	}
	exact := c.cfg
	exact.Fidelity = fidelity.Exact
	obs, err := train.Campaign(exact)
	if err != nil {
		return err
	}
	c.ref, err = gridOf(obs)
	return err
}

// simMs is the simulated time one grid covers.
func simMs(obs []train.Observation) float64 {
	var ms float64
	for _, o := range obs {
		ms += campaignWarmup.Seconds()*1000 + o.LoadTimeS*1000
	}
	return ms
}

func (c *campaign) run(tr *tracer) (pass, error) {
	p := pass{ops: make([]opSample, 0, c.grids)}
	var errMean, errMax float64
	start := time.Now()
	for g := 0; g < c.grids; g++ {
		t0 := time.Now()
		var obs []train.Observation
		var err error
		if c.replayed {
			obs, err = c.replay(tr, uint64(g+1))
		} else {
			obs, err = train.Campaign(c.cfg)
		}
		lat := time.Since(t0)
		if err != nil {
			return pass{}, fmt.Errorf("grid %d: %w", g, err)
		}
		got, err := gridOf(obs)
		if err != nil {
			return pass{}, err
		}
		ok := got.SHA256 == c.ref.SHA256
		if c.sampled {
			errMean, errMax, ok = sampledError(got.Cells, c.ref.Cells)
		}
		if !ok {
			p.failed++
		}
		p.units += len(obs)
		p.ops = append(p.ops, opSample{LatencyMs: ms(lat), SimMs: simMs(obs), RanSim: true})
	}
	p.wall = time.Since(start)
	if c.sampled {
		p.notes = append(p.notes,
			fmt.Sprintf("sampled_err_mean_pct %.6f %% (budget %d %%)", errMean, sampledMeanBudgetPct),
			fmt.Sprintf("sampled_err_max_pct %.6f %% (budget %d %%)", errMax, sampledMaxBudgetPct))
	}
	return p, nil
}

// gridCell is one campaign cell, enumerated as train.Campaign does:
// page-major, intensity-middle, frequency-minor, seed Seed+1+index.
type gridCell struct {
	page   webgen.Spec
	kernel *corun.Kernel
	kname  string
	in     corun.Intensity
	opp    dvfs.OPP
	seed   int64
}

func (c *campaign) cells() ([]gridCell, error) {
	var cells []gridCell
	for pi, name := range c.cfg.Pages {
		spec, err := webgen.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, in := range []corun.Intensity{corun.None, corun.Low, corun.Medium, corun.High} {
			cell := gridCell{page: spec, kname: "none", in: in}
			if in != corun.None {
				k, err := corun.PickFor(in, pi)
				if err != nil {
					return nil, err
				}
				cell.kernel, cell.kname = &k, k.Name
			}
			for _, f := range c.cfg.FreqsMHz {
				opp, err := c.cfg.SoC.OPPs.ByFreq(f)
				if err != nil {
					return nil, err
				}
				cell.opp, cell.seed = opp, c.cfg.Seed+int64(len(cells))+1
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// replay is the traced twin of one train.Campaign call: the same cells,
// options and checkpoint sharing, with a span around each sim.LoadPage
// when tr is not nil.
// It attaches no sim observer, because an observer turns checkpoint
// reuse off and would change the work a sampled grid does.
func (c *campaign) replay(tr *tracer, op uint64) ([]train.Observation, error) {
	cells, err := c.cells()
	if err != nil {
		return nil, err
	}
	var ckpts *sim.CheckpointStore
	if c.sampled {
		ckpts = sim.NewCheckpointStore()
	}
	root, start := tr.newID(), time.Now()
	out := make([]train.Observation, len(cells))
	errs := make([]error, len(cells))
	parallel(len(cells), campaignWorkers, func(_, i int) {
		out[i], errs[i] = c.measure(tr, root, op, cells[i], ckpts)
	})
	tr.record(root, 0, op, "train.Campaign", start)
	if ckpts != nil && tr != nil {
		c.mu.Lock()
		c.ckptRatios = append(c.ckptRatios, 1-float64(ckpts.Len())/float64(len(cells)))
		c.mu.Unlock()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// measure mirrors train's per-cell measurement.
func (c *campaign) measure(tr *tracer, parent, op uint64, cell gridCell, ckpts *sim.CheckpointStore) (train.Observation, error) {
	start, id := time.Now(), tr.newID()
	r, err := sim.LoadPage(sim.Options{
		SoC:         c.cfg.SoC,
		Governor:    governor.NewFixed(cell.opp),
		Seed:        cell.seed,
		Warmup:      campaignWarmup,
		Fidelity:    c.cfg.Fidelity,
		Checkpoints: ckpts,
	}, sim.Workload{Page: cell.page, CoRun: cell.kernel})
	tr.record(id, parent, op, "sim.LoadPage", start)
	if err != nil {
		return train.Observation{}, err
	}
	x, err := core.InputVector(r.Features.Vector(), r.AvgCoRunMPKI, cell.opp, r.AvgCoRunUtil)
	if err != nil {
		return train.Observation{}, err
	}
	if cell.kernel != nil && tr != nil {
		c.mu.Lock()
		c.coRunMPKI = append(c.coRunMPKI, r.AvgCoRunMPKI)
		c.mu.Unlock()
	}
	return train.Observation{
		Page: cell.page.Name, Kernel: cell.kname, Intensity: cell.in,
		FreqMHz: cell.opp.FreqMHz, BusMHz: cell.opp.BusFreqMHz, VoltV: cell.opp.VoltageV,
		X: x, LoadTimeS: r.LoadTime.Seconds(), PowerW: r.AvgPowerW, AvgTempC: r.AvgSoCTempC, Met3s: r.DeadlineMet,
	}, nil
}

func (c *campaign) layers(tr *tracer, p pass) map[string]float64 {
	cellMs, gridMs := tr.durationsMs("sim.LoadPage"), tr.durationsMs("train.Campaign")
	var busy, wall, simulated float64
	for _, d := range cellMs {
		busy += d
	}
	for _, d := range gridMs {
		wall += d
	}
	for _, o := range p.ops {
		simulated += o.SimMs
	}
	m := map[string]float64{
		"train.cell_ms":             mean(cellMs),
		"train.fanout_idle_share":   1 - busy/(campaignWorkers*wall),
		"sim.simulated_ms_per_cell": simulated / float64(p.units),
		"sim.checkpoint_hit_ratio":  mean(c.ckptRatios),
		"soc.l2_mpki":               mean(c.coRunMPKI),
	}
	cells, err := c.cells()
	if err == nil {
		// The high-intensity cell at the lower frequency of the first page.
		cell := cells[3*len(c.cfg.FreqsMHz)]
		err = kernelLayers(m, cell.page, cell.kernel, cell.opp, cell.seed)
	}
	if err != nil {
		fmt.Println("kernel layers dropped:", err)
	}
	return m
}
