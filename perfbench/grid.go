package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"tbpoint/internal/core"
	"tbpoint/internal/experiments"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/par"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
	"tbpoint/internal/workloads"
)

// gridScale keeps one accuracy grid near 1.5 s on a 2-core host, so a run
// takes the median of several grids rather than timing one.
const gridScale = 0.05

// accuracyGrid is the researcher's Fig. 9-11 run: the accuracy target over
// all 12 benchmarks through experiments.RunTargets, serial event loop, no
// artifact cache. The unsampled full reference dominates it.
func accuracyGrid(r *run) error {
	opts := experiments.DefaultOptions(gridScale)
	opts.Seed = r.cfg.seed
	specs := workloads.All()

	// Set-up generates the inputs: the 12 applications at the grid's scale
	// and seed, whose instruction totals the throughput is counted from.
	totals := map[string]int64{}
	if err := r.measureSetup(func() error {
		for _, s := range specs {
			totals[s.Name] = s.Build(workloads.Config{Scale: gridScale, Seed: r.cfg.seed}).TotalWarpInsts()
		}
		return nil
	}); err != nil {
		return err
	}

	var refBundle []byte
	var ref []*experiments.BenchResult
	untraced := func() (float64, error) {
		bundle, err := experiments.RunTargets(opts, experiments.RunSpec{Targets: []string{"accuracy"}}, nil)
		r.attempted += len(specs)
		if err != nil {
			r.failed += len(specs)
			return 0, err
		}
		r.failed += len(bundle.Errors)
		var buf bytes.Buffer
		if err := bundle.WriteJSON(&buf); err != nil {
			return 0, err
		}
		if refBundle == nil {
			refBundle, ref = buf.Bytes(), bundle.Accuracy
			checkGrid(r, bundle)
		} else {
			r.sameOutputs(fmt.Sprintf("accuracy-grid: bundles of seed %d", r.cfg.seed), refBundle, buf.Bytes())
		}
		return float64(gridSimulated(bundle.Accuracy, totals)), nil
	}

	var mcs []*metrics.Collector
	var busyShare, denied []float64
	traced := func(tr *tracer, root int) (float64, error) {
		mc := metrics.New()
		t := timer()
		res, busy, err := tracedGrid(tr, root, opts, specs, mc)
		wall := t()
		r.attempted += len(specs)
		if err != nil {
			r.failed += len(specs)
			return 0, err
		}
		if len(mcs) > 0 {
			r.check(sameSimCounts(mcs[0], mc), "accuracy-grid: simulated counts differ between traced passes")
		}
		mcs = append(mcs, mc)
		busyShare = append(busyShare, busy/(wall*float64(par.Limit())))
		// A worker with no cell left to start waits for the last ones to
		// end; that time is no layer's, but it is part of wall x workers.
		r.idle = wall*float64(par.Limit()) - busy
		denied = append(denied, float64(mc.Count(metrics.ParAcquireDenied)))
		if err := sameResults(r, "accuracy-grid: the traced per-step estimates and the untraced bundle's", ref, res); err != nil {
			return 0, err
		}
		sim := gridSimulated(res, totals)
		r.check(mc.Count(metrics.SimWarpInsts) == uint64(sim),
			"accuracy-grid: collector counted %d simulated warp instructions, results imply %d", mc.Count(metrics.SimWarpInsts), sim)
		return float64(sim), nil
	}

	// The build, the profile, the full reference and the strategies are
	// every layer call a benchmark cell makes.
	busyMetrics := map[string]string{
		"gpusim.fullref":   "gpusim.fullref_busy_s",
		"funcsim.profile":  "funcsim.profile_busy_s",
		"sampler.random":   "sampler.random_busy_s",
		"sampler.simpoint": "sampler.simpoint_busy_s",
		"sampler.tbpoint":  "sampler.tbpoint_busy_s",
	}
	err := r.measure(func(p pass) (float64, error) {
		if p.tr == nil {
			return untraced()
		}
		return traced(p.tr, p.root)
	}, par.Limit(), spanNames(busyMetrics, "workloads.build")...)
	if err != nil {
		return err
	}
	if len(ref) > 0 {
		errPct, samplePct := tbpointAccuracy(ref)
		r.set("tbpoint_err_pct", errPct)
		r.set("tbpoint_sample_pct", samplePct)
	}
	if r.cfg.trace && len(mcs) > 0 {
		r.layerBusy(busyMetrics)
		snap := mcs[0].Snapshot()
		r.simCounts(snap)
		r.coreCounts(snap)
		full := r.values["gpusim.fullref_busy_s"]
		r.set("gpusim.ns_per_warp_inst", full*1e9/float64(sumTotals(totals)))
		r.setTiming("experiments.busy_share", busyShare)
		r.setTiming("par.acquire_denied", denied)
	}
	return nil
}

// tracedGrid drives the accuracy grid's per-benchmark steps through the
// public functions RunBenchmark calls — build, profile, full reference,
// then each default strategy's estimate — over the same worker budget, with
// a span around each call. It returns the results in benchmark order and
// the summed busy time of the benchmark cells.
func tracedGrid(tr *tracer, root int, opts experiments.Options, specs []*workloads.Spec,
	mc *metrics.Collector) ([]*experiments.BenchResult, float64, error) {
	names, err := sampler.Normalize(nil)
	if err != nil {
		return nil, 0, err
	}
	set, err := sampler.Resolve(names)
	if err != nil {
		return nil, 0, err
	}
	out := make([]*experiments.BenchResult, len(specs))
	busy := make([]float64, len(specs))
	par.SetLimit(experiments.Parallelism)
	par.ResetStats()
	err = par.ForEach(len(specs), func(i int) error {
		spec := specs[i]
		t := timer()
		cell := tr.begin("bench", root)
		defer func() { tr.end(cell); busy[i] = t() }()
		cmc := metrics.New()
		defer mc.Merge(cmc)
		sim, err := gpusim.New(gpusim.DefaultConfig())
		if err != nil {
			return err
		}
		var app *kernel.App
		tr.do("workloads.build", cell, func() {
			app = spec.Build(workloads.Config{Scale: opts.Scale, Seed: opts.Seed})
		})
		var prof *core.AppProfile
		tr.do("funcsim.profile", cell, func() { prof = core.ProfileAppMetrics(app, cmc) })
		var full *sampling.AppRun
		tr.do("gpusim.fullref", cell, func() {
			full = experiments.FullAppMetrics(sim, app, unitSize(opts, app.TotalWarpInsts()), cmc)
		})
		res := &experiments.BenchResult{Name: spec.Name, Type: spec.Type,
			FullIPC: full.IPC(), FullOverallIPC: full.OverallIPC()}
		tb := core.DefaultOptions()
		tb.Metrics = cmc
		in := sampler.Input{Sim: sim, Prof: prof, Full: full, TBPoint: tb,
			Params: sampler.Params{Frac: opts.RandomFrac, Seed: opts.Seed, Sigma: tb.SigmaInter}}
		for _, s := range set {
			var o sampler.Outcome
			tr.do("sampler."+s.Name(), cell, func() { o, err = s.Estimate(in) })
			if err != nil {
				return fmt.Errorf("%s: %s: %w", spec.Name, s.Name(), err)
			}
			switch s.Name() {
			case sampler.NameRandom:
				res.Random, res.RandomErr = o.Estimate, o.Estimate.Error(full)
			case sampler.NameSimPoint:
				res.SimPoint, res.SimPointErr = o.Estimate, o.Estimate.Error(full)
			case sampler.NameTBPoint:
				res.TBPoint, res.TBPointErr = o.Estimate, o.Estimate.Error(full)
			}
		}
		out[i] = res
		return nil
	})
	par.StatsInto(mc)
	var total float64
	for _, b := range busy {
		total += b
	}
	return out, total, err
}

// unitSize mirrors experiments.Options' fixed sampling-unit rule (about
// totalInsts/UnitDivisor, clamped). The traced grid's results are compared
// byte for byte with RunTargets', so a drift here fails the run rather than
// skewing it.
func unitSize(o experiments.Options, totalInsts int64) int64 {
	u := totalInsts / int64(o.UnitDivisor)
	u = max(u, o.MinUnitInsts)
	if o.MaxUnitInsts > 0 {
		u = min(u, o.MaxUnitInsts)
	}
	return max(u, 1)
}

// sameResults checks two sets of benchmark results with sameOutputs.
func sameResults(r *run, what string, a, b []*experiments.BenchResult) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	r.sameOutputs(what, ja, jb)
	return nil
}

// checkGrid checks a grid bundle's shape: 12 results, no failed cells,
// finite estimates.
func checkGrid(r *run, b *experiments.Results) {
	r.check(len(b.Accuracy) == len(workloads.All()), "accuracy-grid: %d results, want %d", len(b.Accuracy), len(workloads.All()))
	r.check(len(b.Errors) == 0, "accuracy-grid: %d cell errors", len(b.Errors))
	for _, res := range b.Accuracy {
		for _, v := range []float64{res.FullIPC, res.Random.PredictedIPC, res.SimPoint.PredictedIPC,
			res.TBPoint.PredictedIPC, res.RandomErr, res.SimPointErr, res.TBPointErr} {
			r.check(!math.IsNaN(v) && !math.IsInf(v, 0), "accuracy-grid: %s has a non-finite estimate", res.Name)
		}
		r.check(res.FullIPC > 0 && res.TBPoint.PredictedIPC > 0, "accuracy-grid: %s has a zero IPC", res.Name)
	}
}

// gridSimulated counts the warp instructions one grid simulates: every
// instruction once in the full reference, plus what TBPoint's sampled
// representative simulations run. Random and Ideal-Simpoint read the full
// run's units and simulate nothing of their own.
func gridSimulated(rs []*experiments.BenchResult, totals map[string]int64) int64 {
	var n int64
	for _, res := range rs {
		t := totals[res.Name]
		n += t + tbpointSimulated(res.TBPoint, t)
	}
	return n
}

// tbpointSimulated is the part of total that a TBPoint estimate simulated.
func tbpointSimulated(e sampling.Estimate, total int64) int64 {
	return total - e.SkippedInterInsts - e.SkippedIntraInsts
}

func sumTotals(totals map[string]int64) int64 {
	var n int64
	for _, t := range totals {
		n += t
	}
	return n
}

// tbpointAccuracy returns TBPoint's mean absolute IPC error against the
// full simulation and its mean sample size (Fig. 9 and Fig. 10), in percent.
func tbpointAccuracy(rs []*experiments.BenchResult) (errPct, samplePct float64) {
	for _, res := range rs {
		errPct += res.TBPointErr
		samplePct += res.TBPoint.SampleSize
	}
	n := float64(len(rs))
	return errPct / n * 100, samplePct / n * 100
}

// coreCounts sets the TBPoint pipeline's counters from a collector.
func (r *run) coreCounts(s metrics.Snapshot) {
	c := s.Counters
	r.set("core.clusters", float64(c["core.clusters"]))
	r.set("core.regions", float64(c["core.regions"]))
	r.set("core.warm_units", float64(c["core.warm_units"]))
	r.set("core.simulated_insts", float64(c["core.simulated_insts"]))
}
