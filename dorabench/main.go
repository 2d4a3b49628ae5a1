// Command dorabench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed, seed-derived sequence of operations,
// checks every output, and prints its metrics as the last line of
// standard output:
//
//	go build -o dorabench . && ./dorabench --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same sequence twice, untraced and then traced, and prints
// the per-layer metrics plus the tracing overhead. NOTES.md maps each
// metric to its layer and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"dora/internal/train"
)

// bench is one workload: one benchmark input set. setup may be called again after
// close; every other method runs between a setup and its close.
type bench interface {
	// why says in one sentence why the workload exists.
	why() string
	// setup pays the costs a user pays once: booting daemons, dialling
	// connections, priming caches, warming the simulator.
	setup(tr *tracer) error
	// reference loads (default seed) or computes (any other seed) the
	// expected outputs. It is never timed.
	reference() error
	// run issues the timed operation sequence and checks each output.
	run(tr *tracer) (pass, error)
	// layers derives the per-layer metrics of a traced run.
	layers(tr *tracer, p pass) map[string]float64
	close()
}

// pass is the outcome of one timed operation sequence.
type pass struct {
	ops    []opSample
	wall   time.Duration
	failed int
	// units is the work the pass completed: grid cells for a campaign,
	// requests for serving.
	units int
	// notes are metric lines printed beside the JSON result.
	notes []string
}

// setupReps is how many times a run sets up; setup_s is the median of
// their CPU times.
const setupReps = 5

// defaultSeed is the seed whose expected outputs are committed in
// testdata/reference.json.
const defaultSeed = 1

// buildDir holds run caches and trace dumps; it is inside the
// checkout and ignored by git.
const buildDir = ".bench_build"

var workloadNames = []string{"campaign-exact", "campaign-sampled", "serve-hot", "serve-fresh"}

// newWorkload builds the named workload. traced marks a traced run, whose
// untraced and traced passes must take the same code path.
func newWorkload(name string, seed int64, seconds float64, traced bool, tmp string) (bench, error) {
	switch name {
	case "campaign-exact":
		return newCampaign(false, seed, seconds, traced), nil
	case "campaign-sampled":
		return newCampaign(true, seed, seconds, traced), nil
	case "serve-hot":
		return newServeHot(seed, seconds, tmp), nil
	case "serve-fresh":
		return newServeFresh(seed, seconds, tmp), nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, workloadNames)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 15, "nominal measured seconds; sets the operation count")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	writeRef := flag.String("write-reference", "", "compute the default seed's expected outputs for --seconds and write them to this file")
	flag.Parse()
	var err error
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case *writeRef != "":
		err = writeReference(*writeRef, *seconds)
	default:
		err = benchmark(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dorabench:", err)
		os.Exit(1)
	}
}

func benchmark(name string, seed int64, seconds float64, traced bool) error {
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if traced {
		// Two passes share the run's time.
		seconds /= 2
	}
	w, err := newWorkload(name, seed, seconds, traced, tmp)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: %s\n", name, w.why())

	var res result
	if traced {
		res, err = tracedRun(w, name)
	} else {
		res, err = untracedRun(w)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d of %d operations failed\n", name, res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// endToEndUnits lists the metrics of an untraced run's JSON result: the
// ones that repeat from run to run on a shared host. Wall-time figures
// are printed beside it (see NOTES.md).
var endToEndUnits = map[string]string{
	"cpu_ms_per_op": "ms",
	"peak_rss_mb":   "MB",
	"setup_s":       "s",
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w bench) (result, error) {
	var setupCPU, setupWall []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		start, c0 := time.Now(), cpuSeconds()
		if err := w.setup(nil); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		setupCPU = append(setupCPU, cpuSeconds()-c0)
	}
	defer w.close()
	if err := w.reference(); err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	c0 := cpuSeconds()
	p, err := w.run(nil)
	if err != nil {
		return result{}, err
	}
	cpu := cpuSeconds() - c0
	values := map[string]float64{
		"cpu_ms_per_op": cpu * 1000 / float64(len(p.ops)),
		"peak_rss_mb":   peakRSSMB(),
		"setup_s":       median(setupCPU),
	}
	m := make(map[string]metric, len(endToEndUnits))
	for k, unit := range endToEndUnits {
		m[k] = metric{values[k], unit}
	}
	lat := make([]float64, len(p.ops))
	for i, o := range p.ops {
		lat[i] = o.LatencyMs
	}
	s := summarize(lat)
	fmt.Printf("setup_s (CPU) runs: %v\n", setupCPU)
	fmt.Printf("setup_wall_s %.4f s, median of %v\n", median(setupWall), setupWall)
	fmt.Printf("throughput_per_s %.4f 1/s (%d units in %.3f s)\n", float64(p.units)/p.wall.Seconds(), p.units, p.wall.Seconds())
	fmt.Printf("latency_p50_ms %.4f ms over %d samples\n", s.P50, s.N)
	if s.HasTail {
		fmt.Printf("latency_tail_ms %.4f ms = p%g over %d samples (%d beyond)\n", s.Tail, s.TailP, s.N, s.Beyond)
	} else {
		fmt.Printf("latency_tail_ms omitted: %d samples support no percentile above p50\n", s.N)
	}
	if v, ok := hostNsPerSimMs(float64(p.wall.Nanoseconds()), p.ops); ok {
		fmt.Printf("host_ns_per_sim_ms %.1f ns/ms\n", v)
	}
	for _, n := range p.notes {
		fmt.Println(n)
	}
	return result{Correct: p.failed == 0, Attempted: len(p.ops), Failed: p.failed, Metrics: m}, nil
}

// tracedRun runs the sequence untraced, then traced, and reports the
// per-layer metrics of the traced pass and the cost of tracing.
func tracedRun(w bench, name string) (result, error) {
	var walls [2]time.Duration
	var res result
	var tr *tracer
	for i := range walls {
		if i == 1 {
			tr = newTracer()
		}
		if err := w.setup(tr); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		if i == 0 {
			if err := w.reference(); err != nil {
				w.close()
				return result{}, fmt.Errorf("reference: %w", err)
			}
		}
		tr.reset()
		p, err := w.run(tr)
		if err != nil {
			w.close()
			return result{}, err
		}
		walls[i] = p.wall
		res.Attempted += len(p.ops)
		res.Failed += p.failed
		if i == 1 {
			layers := w.layers(tr, p)
			layers["trace_overhead_pct"] = (walls[1].Seconds()/walls[0].Seconds() - 1) * 100
			res.Metrics = make(map[string]metric, len(layerUnits))
			for k, unit := range layerUnits {
				res.Metrics[k] = metric{layers[k], unit}
			}
		}
		w.close()
	}
	res.Correct = res.Failed == 0
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	// One file per workload, rewritten by each traced run, so repeated
	// runs do not pile up dumps.
	dump := filepath.Join(buildDir, "trace-"+name+".json")
	if err := tr.dump(dump); err != nil {
		return result{}, fmt.Errorf("dump spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", dump)
	return res, nil
}

// cpuSeconds is the CPU time, user and system, the process has used.
// Unlike wall time it leaves out the time the process waited for a CPU,
// so it does not move when other guests load the host.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeReference records the expected outputs of defaultSeed: the exact
// campaign grid and the serve-fresh response hashes for a run of the
// given length (shorter runs check a prefix).
func writeReference(path string, seconds float64) error {
	ref := referenceFile{Seed: defaultSeed}
	c := newCampaign(false, defaultSeed, seconds, false)
	obs, err := train.Campaign(c.cfg)
	if err != nil {
		return err
	}
	if ref.Grid, err = gridOf(obs); err != nil {
		return err
	}
	if ref.Fresh, err = freshHashes(newServeFresh(defaultSeed, seconds, "").reqs); err != nil {
		return err
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
