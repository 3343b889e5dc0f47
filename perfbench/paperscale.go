package main

import (
	"encoding/json"
	"errors"
	"fmt"

	"tbpoint/internal/core"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampling"
	"tbpoint/internal/workloads"
)

// paperScale is Table VI's workload size.
const paperScale = 1.0

// tbpointPaperscale is the paper's own user path: for each of the 12
// benchmarks at Table VI scale, build the application, profile it once,
// cluster its launches and run TBPoint's sampled simulation. No full
// reference runs, so the profiler, the clustering and region
// identification weigh far more here than in the accuracy grid.
//
// Benchmarks run one after another, as a user estimating each would run
// them; core.Retarget fans each one's representative simulations out over
// the worker budget. Retarget with the clustering just computed is core.Run
// without clustering a second time.
func tbpointPaperscale(r *run) error {
	specs := workloads.All()
	var sim *gpusim.Simulator
	if err := r.measureSetup(func() error {
		var err error
		sim, err = gpusim.New(gpusim.DefaultConfig())
		for _, s := range specs {
			s.Build(workloads.Config{Scale: paperScale, Seed: r.cfg.seed})
		}
		return err
	}); err != nil {
		return err
	}
	opts := core.DefaultOptions()

	var ref []sampling.Estimate
	var samplePct []float64
	var mcs []*metrics.Collector
	busyMetrics := map[string]string{
		"funcsim.profile": "funcsim.profile_busy_s",
		"cluster.inter":   "cluster.inter_busy_s",
		"core.region_id":  "core.region_id_busy_s",
		"gpusim.sampled":  "gpusim.sampled_busy_s",
	}
	err := r.measure(func(p pass) (float64, error) {
		tr, root := p.tr, p.root
		var mc *metrics.Collector
		if tr != nil {
			mc = metrics.New()
		}
		ests := make([]sampling.Estimate, len(specs))
		var simulated int64
		var sizes float64
		for i, spec := range specs {
			r.attempted++
			res, tables, err := estimate(tr, root, sim, spec, r.cfg.seed, opts, mc)
			if err != nil {
				r.failed++
				return 0, fmt.Errorf("%s: %w", spec.Name, err)
			}
			for rep, rt := range tables {
				got := res.Tables[rep]
				r.check(got != nil && got.NumRegions == rt.NumRegions,
					"tbpoint-paperscale: %s launch %d: the traced region identification differs from core.Retarget's", spec.Name, rep)
			}
			ests[i] = res.Estimate
			sizes += res.Estimate.SampleSize
			for _, s := range res.Samples {
				simulated += s.SimulatedInsts
			}
		}
		if ref == nil {
			ref = ests
		} else {
			for i := range ests {
				ja, errA := json.Marshal(ref[i])
				jb, errB := json.Marshal(ests[i])
				if errA != nil || errB != nil {
					return 0, errors.Join(errA, errB)
				}
				r.sameOutputs(fmt.Sprintf("tbpoint-paperscale: %s estimates of passes of seed %d", specs[i].Name, r.cfg.seed), ja, jb)
			}
		}
		if tr != nil {
			if len(mcs) > 0 {
				r.check(sameSimCounts(mcs[0], mc), "tbpoint-paperscale: simulated counts differ between traced passes")
			}
			r.check(mc.Count(metrics.SimWarpInsts) == uint64(simulated),
				"tbpoint-paperscale: collector counted %d simulated warp instructions, samples report %d",
				mc.Count(metrics.SimWarpInsts), simulated)
			mcs = append(mcs, mc)
		}
		samplePct = append(samplePct, sizes/float64(len(specs))*100)
		return float64(simulated), nil
	}, 1, spanNames(busyMetrics, "workloads.build")...)
	if err != nil {
		return err
	}
	if len(samplePct) > 0 {
		r.set("tbpoint_sample_pct", samplePct[0])
	}
	if r.cfg.trace && len(mcs) > 0 {
		r.layerBusy(busyMetrics)
		snap := mcs[0].Snapshot()
		r.simCounts(snap)
		r.coreCounts(snap)
	}
	return nil
}

// estimate runs TBPoint end to end on one benchmark, with a span around
// each public call when tr is set. Traced runs also identify regions on
// their own, and return those tables: core.Retarget repeats that step
// inside the gpusim.sampled span, so the pipeline's split is measured
// without reaching into it, at the cost of identifying regions twice.
func estimate(tr *tracer, root int, sim *gpusim.Simulator, spec *workloads.Spec, seed uint64,
	opts core.Options, mc *metrics.Collector) (*core.Result, map[int]*core.RegionTable, error) {
	cell := tr.begin("bench", root)
	defer tr.end(cell)
	var app *kernel.App
	tr.do("workloads.build", cell, func() { app = spec.Build(workloads.Config{Scale: paperScale, Seed: seed}) })
	var prof *core.AppProfile
	tr.do("funcsim.profile", cell, func() { prof = core.ProfileApp(app) })
	var inter *core.InterResult
	tr.do("cluster.inter", cell, func() { inter = core.InterLaunch(prof.Profiles, opts.SigmaInter) })
	var tables map[int]*core.RegionTable
	if tr != nil {
		tr.do("core.region_id", cell, func() { tables = identifyRegions(sim.Config(), prof, inter, opts) })
	}
	opts.Metrics = mc
	var res *core.Result
	var err error
	tr.do("gpusim.sampled", cell, func() { res, err = core.Retarget(sim, prof, inter, opts) })
	return res, tables, err
}

// identifyRegions builds the region table of every representative launch,
// at each launch's system occupancy, as core.Retarget does.
func identifyRegions(cfg gpusim.Config, prof *core.AppProfile, inter *core.InterResult, opts core.Options) map[int]*core.RegionTable {
	out := map[int]*core.RegionTable{}
	for _, rep := range inter.RepLaunches() {
		occ := cfg.Limits.SystemOccupancy(prof.App.Launches[rep].Kernel, cfg.NumSMs)
		out[rep] = core.IdentifyRegions(prof.Profiles[rep], occ, opts.SigmaIntra, opts.VarFactor)
	}
	return out
}
