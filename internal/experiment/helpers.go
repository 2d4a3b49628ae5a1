package experiment

import (
	"time"

	"dora/internal/corun"
	"dora/internal/dvfs"
	"dora/internal/governor"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/workload"
)

// kernelReplay is the cached result of a kernel instruction replay.
type kernelReplay struct {
	EnergyJ float64
	Elapsed time.Duration
}

// kernelReplayEnergy replays kernel k alone at opp until n instructions
// retire (Fig. 2's E_O term), consulting the persistent run cache.
func (s *Suite) kernelReplayEnergy(k corun.Kernel, opp dvfs.OPP, seed int64, n uint64) (float64, time.Duration, error) {
	var key string
	if s.RunCache != nil {
		key = runcache.Key("kernel-replay", s.fingerprint(), k.Name, opp.FreqMHz, seed, n)
		var r kernelReplay
		if s.RunCache.Get(key, &r) {
			s.Metrics.Counter("dora_suite_runcache_hits_total", "measurements served from the persistent run cache").Inc()
			return r.EnergyJ, r.Elapsed, nil
		}
	}
	energy, elapsed, err := sim.RunKernelInstructions(sim.Options{
		SoC:      s.SoC,
		Governor: governor.NewFixed(opp),
		Seed:     seed,
	}, k, n)
	if err != nil {
		return 0, 0, err
	}
	s.RunCache.Put(key, kernelReplay{EnergyJ: energy, Elapsed: elapsed})
	return energy, elapsed, nil
}

// newKernelMachine measures a kernel running alone for two seconds at
// the given OPP and returns its counters wrapped as a sim.Result (only
// the MPKI/utilization fields are populated).
func newKernelMachine(s *Suite, opp dvfs.OPP, k corun.Kernel) (sim.Result, error) {
	m, err := soc.New(s.SoC, s.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	m.SetOPP(opp)
	if err := m.AssignSource(sim.CoRunCore, workload.Loop(k.New(s.Seed+1))); err != nil {
		return sim.Result{}, err
	}
	m.Step(2 * time.Second)
	c := m.Counters(sim.CoRunCore)
	return sim.Result{
		CoRunName:    k.Name,
		Intensity:    k.Intensity,
		AvgCoRunMPKI: c.MPKI(),
		AvgCoRunUtil: c.Utilization(),
	}, nil
}
