package main

import (
	"runtime"

	"tbpoint/internal/funcsim"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/workloads"
)

// bigKernels are simulated in full on the epoch-parallel engine: black is
// compute-bound (2.7% memory instructions) and mri memory-bound (33%), so
// within one engine the memory system does little in one kernel and most
// of the work in the other.
var bigKernels = []string{"black", "mri"}

// bigkernelParsm simulates every launch of the big kernels at Table VI
// scale, unsampled, with gpusim's parallel event loop on nproc workers. It
// is the only workload that runs gpusim/parallel.go.
func bigkernelParsm(r *run) error {
	workers := runtime.NumCPU()
	var apps []*kernel.App
	var sim *gpusim.Simulator
	var profiled []int64 // each app's warp instructions per the functional profile
	if err := r.measureSetup(func() error {
		var err error
		if sim, err = gpusim.New(gpusim.DefaultConfig()); err != nil {
			return err
		}
		apps, profiled = nil, nil
		for _, name := range bigKernels {
			spec, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			app := spec.Build(workloads.Config{Scale: paperScale, Seed: r.cfg.seed})
			var n int64
			for _, lp := range funcsim.ProfileApp(app) {
				n += lp.TotalWarpInsts()
			}
			apps, profiled = append(apps, app), append(profiled, n)
		}
		return nil
	}); err != nil {
		return err
	}

	var refCycles []int64
	var mcs []*metrics.Collector
	err := r.measure(func(p pass) (float64, error) {
		tr, root := p.tr, p.root
		var mc *metrics.Collector
		if tr != nil {
			mc = metrics.New()
		}
		cycles := make([]int64, len(apps))
		var simulated int64
		for i, app := range apps {
			var insts int64
			for _, l := range app.Launches {
				r.attempted++
				var res *gpusim.LaunchResult
				tr.do("gpusim.parallel", root, func() {
					res = sim.RunLaunch(l, gpusim.RunOptions{Workers: workers, Metrics: mc})
				})
				if res.Aborted {
					r.failed++
				}
				cycles[i] += res.Cycles
				insts += res.SimulatedWarpInsts
			}
			r.check(insts == profiled[i], "bigkernel-parsm: %s simulated %d warp instructions, its profile counts %d",
				app.Name, insts, profiled[i])
			simulated += insts
		}
		if refCycles == nil {
			refCycles = cycles
		} else {
			for i := range cycles {
				r.check(cycles[i] == refCycles[i], "bigkernel-parsm: %s took %d cycles, an earlier pass %d",
					apps[i].Name, cycles[i], refCycles[i])
			}
		}
		if tr != nil {
			mcs = append(mcs, mc)
		}
		return float64(simulated), nil
	}, 1, "gpusim.parallel")
	if err != nil {
		return err
	}
	if r.cfg.trace && len(mcs) > 0 {
		snap := mcs[0].Snapshot()
		r.simCounts(snap)
		busy := median(r.spanSelf("gpusim.parallel"))
		r.set("gpusim.par_ns_per_warp_inst", busy*1e9/float64(snap.Counters["sim.warp_insts"]))
	}
	return nil
}
