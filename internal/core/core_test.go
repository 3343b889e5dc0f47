package core

import (
	"math"
	"testing"

	"tbpoint/internal/funcsim"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/stats"
)

// phasedKernel builds a kernel whose memory intensity is controlled per
// block via trip parameters: trip 0 controls compute iterations, trip 1
// memory iterations, so stall probability varies per block.
func phasedKernel() *kernel.Kernel {
	prog := isa.NewBuilder("phased").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Cat(isa.Rep(isa.FALU(), 4), isa.Branch())...).
		LoopBlocks(1, isa.Load(4, 1, 128), isa.IALU(), isa.Branch()).
		EndBlock(isa.Store(1, 2, 128)).
		Build()
	return &kernel.Kernel{Name: "phased", Program: prog, ThreadsPerBlock: 64}
}

// launchWithPhases builds a launch whose blocks alternate between phases:
// block i gets phases[i * len(phases) / n] as (computeTrips, memTrips).
func launchWithPhases(k *kernel.Kernel, n int, phases [][2]int) *kernel.Launch {
	params := make([]kernel.TBParams, n)
	for i := range params {
		p := phases[i*len(phases)/n]
		params[i] = kernel.TBParams{Trips: []int{p[0], p[1]}, ActiveFrac: 1, Seed: uint64(i + 1)}
	}
	return &kernel.Launch{Kernel: k, Params: params}
}

func uniformLaunch(k *kernel.Kernel, n, ct, mt int) *kernel.Launch {
	return launchWithPhases(k, n, [][2]int{{ct, mt}})
}

func testConfig() gpusim.Config {
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	return cfg
}

func TestInterFeaturesShape(t *testing.T) {
	k := phasedKernel()
	app := &kernel.App{Launches: []*kernel.Launch{
		uniformLaunch(k, 10, 8, 2),
		uniformLaunch(k, 20, 8, 2),
	}}
	prof := ProfileApp(app)
	feats := InterFeatures(prof.Profiles)
	if len(feats) != 2 || len(feats[0]) != 4 {
		t.Fatalf("features shape %dx%d, want 2x4", len(feats), len(feats[0]))
	}
	// Features are mean normalised: column means are 1 (for non-zero
	// columns).
	for d := 0; d < 3; d++ {
		m := (feats[0][d] + feats[1][d]) / 2
		if math.Abs(m-1) > 1e-9 {
			t.Errorf("feature %d mean = %v, want 1", d, m)
		}
	}
}

func TestInterLaunchGroupsHomogeneous(t *testing.T) {
	k := phasedKernel()
	var launches []*kernel.Launch
	// 6 identical launches + 2 launches twice the size.
	for i := 0; i < 6; i++ {
		launches = append(launches, uniformLaunch(k, 10, 8, 2))
	}
	launches = append(launches, uniformLaunch(k, 40, 8, 2), uniformLaunch(k, 40, 8, 2))
	prof := ProfileApp(&kernel.App{Launches: launches})
	inter := InterLaunch(prof.Profiles, 0.1)
	if inter.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", inter.NumClusters)
	}
	// The six small launches share a cluster and a representative.
	rep := inter.RepOf(0)
	for li := 1; li < 6; li++ {
		if inter.RepOf(li) != rep {
			t.Errorf("launch %d not grouped with launch 0", li)
		}
	}
	if inter.RepOf(6) == rep {
		t.Error("large launch grouped with small launches")
	}
	if !inter.IsRep(rep) {
		t.Error("representative is not its own rep")
	}
	if got := len(inter.RepLaunches()); got != 2 {
		t.Errorf("RepLaunches = %d, want 2", got)
	}
}

func TestInterLaunchDivergenceFeature(t *testing.T) {
	// Same thread instructions, different warp instructions (divergence)
	// must separate launches.
	k := phasedKernel()
	a := uniformLaunch(k, 10, 8, 2)
	b := uniformLaunch(k, 10, 8, 2)
	for i := range b.Params {
		b.Params[i].ActiveFrac = 0.5 // same warp insts, half thread insts
	}
	prof := ProfileApp(&kernel.App{Launches: []*kernel.Launch{a, b}})
	inter := InterLaunch(prof.Profiles, 0.1)
	if inter.NumClusters != 2 {
		t.Errorf("divergent launches merged: %d clusters", inter.NumClusters)
	}
}

func TestBuildEpochs(t *testing.T) {
	k := phasedKernel()
	l := launchWithPhases(k, 100, [][2]int{{12, 1}, {2, 8}})
	lp := funcsim.ProfileLaunch(l)
	epochs := BuildEpochs(lp, 10)
	if len(epochs) != 10 {
		t.Fatalf("epochs = %d, want 10", len(epochs))
	}
	for i, e := range epochs {
		if e.End-e.Start != 10 {
			t.Errorf("epoch %d size %d", i, e.End-e.Start)
		}
	}
	// First-half epochs are compute heavy (low stall prob), second half
	// memory heavy (high stall prob).
	if epochs[0].StallProb >= epochs[9].StallProb {
		t.Errorf("stall probs %v vs %v not phased", epochs[0].StallProb, epochs[9].StallProb)
	}
	// Uniform-within-phase epochs have low variation factor.
	if epochs[0].VarFactor > 0.05 {
		t.Errorf("uniform epoch VF = %v", epochs[0].VarFactor)
	}
	// Short trailing epoch.
	epochs2 := BuildEpochs(lp, 30)
	if len(epochs2) != 4 || epochs2[3].End-epochs2[3].Start != 10 {
		t.Errorf("trailing epoch wrong: %+v", epochs2[len(epochs2)-1])
	}
}

func TestIdentifyRegionsTwoPhases(t *testing.T) {
	k := phasedKernel()
	l := launchWithPhases(k, 120, [][2]int{{12, 1}, {2, 8}})
	lp := funcsim.ProfileLaunch(l)
	rt := IdentifyRegions(lp, 12, 0.2, 0.3)
	if rt.NumRegions != 2 {
		t.Fatalf("NumRegions = %d, want 2", rt.NumRegions)
	}
	// Region boundary at block 60.
	if rt.RegionOf[0] != 0 || rt.RegionOf[59] != 0 {
		t.Error("first phase not region 0")
	}
	if rt.RegionOf[60] != 1 || rt.RegionOf[119] != 1 {
		t.Error("second phase not region 1")
	}
	regions := rt.Regions()
	if len(regions) != 2 ||
		regions[0] != (RegionRun{Start: 0, End: 60, ID: rt.RegionOf[0]}) ||
		regions[1] != (RegionRun{Start: 60, End: 120, ID: rt.RegionOf[60]}) {
		t.Errorf("Regions() = %v", regions)
	}
}

func TestIdentifyRegionsOutlierEpochs(t *testing.T) {
	k := phasedKernel()
	l := uniformLaunch(k, 120, 8, 2)
	// Poison blocks 50..54 with huge trip counts: epoch 5 (blocks 50-59)
	// becomes an outlier epoch.
	for tb := 50; tb < 55; tb++ {
		l.Params[tb].Trips = []int{160, 40}
	}
	lp := funcsim.ProfileLaunch(l)
	rt := IdentifyRegions(lp, 10, 0.2, 0.3)
	// The outlier epoch gets its own region ID; the surrounding epochs
	// share a cluster (and hence, per the paper, a region ID).
	if rt.NumRegions != 2 {
		t.Fatalf("NumRegions = %d, want 2 (main cluster + outlier epoch)", rt.NumRegions)
	}
	if rt.RegionOf[49] == rt.RegionOf[50] {
		t.Error("outlier epoch not separated")
	}
	if rt.RegionOf[49] != rt.RegionOf[60] {
		t.Error("epochs around the outlier share a cluster and must share a region ID")
	}
	if runs := rt.Regions(); len(runs) != 3 {
		t.Errorf("Regions() = %v, want 3 runs", runs)
	}
}

func TestIdentifyRegionsIsOccupancyDependentOnly(t *testing.T) {
	k := phasedKernel()
	l := launchWithPhases(k, 120, [][2]int{{12, 1}, {2, 8}})
	lp := funcsim.ProfileLaunch(l)
	a := IdentifyRegions(lp, 12, 0.2, 0.3)
	b := IdentifyRegions(lp, 12, 0.2, 0.3)
	for tb := range a.RegionOf {
		if a.RegionOf[tb] != b.RegionOf[tb] {
			t.Fatal("region identification nondeterministic")
		}
	}
	c := IdentifyRegions(lp, 24, 0.2, 0.3)
	if c.Occupancy != 24 {
		t.Error("occupancy not recorded")
	}
}

func TestSampleLaunchSkipsHomogeneousRegion(t *testing.T) {
	sim := gpusim.MustNew(testConfig())
	k := phasedKernel()
	l := uniformLaunch(k, 400, 8, 3)
	lp := funcsim.ProfileLaunch(l)
	occ := sim.Config().Limits.SystemOccupancy(k, sim.Config().NumSMs)
	rt := IdentifyRegions(lp, occ, 0.2, 0.3)
	if rt.NumRegions != 1 {
		t.Fatalf("uniform launch should be one region, got %d", rt.NumRegions)
	}
	ls := SampleLaunch(sim, l, lp, rt, DefaultOptions())
	if ls.Result.SkippedTBs == 0 {
		t.Fatal("no blocks skipped in a uniform launch")
	}
	if ls.SimulatedInsts >= ls.TotalInsts {
		t.Error("no instruction savings")
	}
	if ls.SkippedInsts != ls.TotalInsts-ls.SimulatedInsts {
		t.Error("skip accounting inconsistent")
	}
	if len(ls.RegionIPC) == 0 {
		t.Error("no region IPC recorded despite fast-forwarding")
	}
	if ls.PredictedCycles <= float64(ls.Result.Cycles) {
		t.Error("prediction should add cycles for skipped work")
	}
	if ls.PredictedIPC() <= 0 {
		t.Error("no predicted IPC")
	}
}

func TestSampleLaunchAccuracyUniform(t *testing.T) {
	sim := gpusim.MustNew(testConfig())
	k := phasedKernel()
	l := uniformLaunch(k, 400, 8, 3)
	lp := funcsim.ProfileLaunch(l)
	occ := sim.Config().Limits.SystemOccupancy(k, sim.Config().NumSMs)
	rt := IdentifyRegions(lp, occ, 0.2, 0.3)

	full := sim.RunLaunch(l, gpusim.RunOptions{})
	ls := SampleLaunch(sim, l, lp, rt, DefaultOptions())
	err := stats.RelErr(ls.PredictedCycles, float64(full.Cycles))
	if err > 0.15 {
		t.Errorf("sampled prediction error %.1f%% too high (pred %.0f, full %d)",
			err*100, ls.PredictedCycles, full.Cycles)
	}
	if ls.SimulatedInsts >= full.SimulatedWarpInsts {
		t.Error("sampling saved nothing")
	}
}

func TestSampleLaunchHeterogeneousSimulatesAll(t *testing.T) {
	// Alternating-phase blocks: every epoch has a high variation factor, so
	// every epoch is an outlier cluster, regions are epoch-sized, and
	// almost nothing can be skipped.
	sim := gpusim.MustNew(testConfig())
	k := phasedKernel()
	n := 120
	params := make([]kernel.TBParams, n)
	for i := range params {
		if i%2 == 0 {
			params[i] = kernel.TBParams{Trips: []int{16, 1}, ActiveFrac: 1, Seed: uint64(i + 1)}
		} else {
			params[i] = kernel.TBParams{Trips: []int{1, 10}, ActiveFrac: 1, Seed: uint64(i + 1)}
		}
	}
	l := &kernel.Launch{Kernel: k, Params: params}
	lp := funcsim.ProfileLaunch(l)
	occ := sim.Config().Limits.SystemOccupancy(k, sim.Config().NumSMs)
	rt := IdentifyRegions(lp, occ, 0.2, 0.3)
	ls := SampleLaunch(sim, l, lp, rt, DefaultOptions())
	if frac := float64(ls.SkippedInsts) / float64(ls.TotalInsts); frac > 0.5 {
		t.Errorf("heterogeneous launch skipped %.0f%% of instructions", frac*100)
	}
}

func TestRunEndToEnd(t *testing.T) {
	sim := gpusim.MustNew(testConfig())
	k := phasedKernel()
	var launches []*kernel.Launch
	for i := 0; i < 8; i++ {
		launches = append(launches, uniformLaunch(k, 200, 8, 3))
	}
	app := &kernel.App{Name: "uniform8", Launches: launches}
	prof := ProfileApp(app)
	res, err := Run(sim, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Inter.NumClusters != 1 {
		t.Errorf("identical launches formed %d clusters", res.Inter.NumClusters)
	}
	if len(res.Samples) != 1 {
		t.Errorf("%d representative samples, want 1", len(res.Samples))
	}
	est := res.Estimate
	if est.SampleSize <= 0 || est.SampleSize >= 0.5 {
		t.Errorf("sample size %.3f implausible for 8 identical launches", est.SampleSize)
	}
	if est.SkippedInterInsts == 0 {
		t.Error("inter-launch sampling saved nothing")
	}

	// Accuracy against the full simulation.
	var fullCycles int64
	for _, l := range app.Launches {
		fullCycles += sim.RunLaunch(l, gpusim.RunOptions{}).Cycles
	}
	if e := stats.RelErr(est.PredictedCycles, float64(fullCycles)); e > 0.15 {
		t.Errorf("end-to-end error %.1f%%", e*100)
	}
}

func TestRunEmptyApp(t *testing.T) {
	sim := gpusim.MustNew(testConfig())
	if _, err := Run(sim, &AppProfile{App: &kernel.App{}}, DefaultOptions()); err == nil {
		t.Error("empty app accepted")
	}
}

func TestRetargetReusesInter(t *testing.T) {
	simA := gpusim.MustNew(testConfig())
	simB := gpusim.MustNew(gpusim.DefaultConfig().WithOccupancy(16, 4))
	k := phasedKernel()
	var launches []*kernel.Launch
	for i := 0; i < 4; i++ {
		launches = append(launches, uniformLaunch(k, 150, 8, 3))
	}
	prof := ProfileApp(&kernel.App{Launches: launches})
	resA, err := Run(simA, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Retarget(simB, prof, resA.Inter, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resB.Inter != resA.Inter {
		t.Error("Retarget did not reuse the clustering")
	}
	if resB.Estimate.PredictedIPC <= 0 {
		t.Error("retargeted prediction empty")
	}
	// Region tables reflect the new occupancy.
	for _, rt := range resB.Tables {
		occ := simB.Config().Limits.SystemOccupancy(k, simB.Config().NumSMs)
		if rt.Occupancy != occ {
			t.Errorf("table occupancy %d, want %d", rt.Occupancy, occ)
		}
	}
	if _, err := Retarget(simB, prof, nil, DefaultOptions()); err == nil {
		t.Error("Retarget accepted nil inter result")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.SigmaInter != 0.1 || o.SigmaIntra != 0.2 || o.VarFactor != 0.3 || o.WarmTol != 0.1 {
		t.Errorf("DefaultOptions = %+v does not match §V-A", o)
	}
}

func TestInterLaunchBBVSplitsByCodePath(t *testing.T) {
	// Two kernels with identical aggregate counters (thread insts, warp
	// insts, memory requests, size CoV) but different basic-block
	// structure: Eq. 2 features merge them, the footnote-2 BBV extension
	// separates them.
	kA := &kernel.Kernel{
		Name: "a", ThreadsPerBlock: 64,
		Program: isa.NewBuilder("a").
			Block(isa.IALU()).
			LoopBlocks(0, isa.Load(2, 1, 128), isa.FALU(), isa.FALU(), isa.Branch()).
			EndBlock().
			Build(),
	}
	kB := &kernel.Kernel{
		Name: "b", ThreadsPerBlock: 64,
		Program: isa.NewBuilder("b").
			Block(isa.IALU()).
			Loop(0,
				isa.Block{Instrs: []isa.Instr{isa.Load(2, 1, 128), isa.FALU()}},
				isa.Block{Instrs: []isa.Instr{isa.FALU(), isa.Branch()}},
			).
			EndBlock().
			Build(),
	}
	mk := func(k *kernel.Kernel) *kernel.Launch {
		params := make([]kernel.TBParams, 20)
		for i := range params {
			params[i] = kernel.TBParams{Trips: []int{5}, ActiveFrac: 1, Seed: uint64(i + 1)}
		}
		return &kernel.Launch{Kernel: k, Params: params}
	}
	prof := ProfileApp(&kernel.App{Launches: []*kernel.Launch{mk(kA), mk(kB)}})

	plain := InterLaunch(prof.Profiles, 0.1)
	if plain.NumClusters != 1 {
		t.Fatalf("plain features should merge identical counters, got %d clusters", plain.NumClusters)
	}
	bbv := InterLaunchBBV(prof.Profiles, 0.1)
	if bbv.NumClusters != 2 {
		t.Errorf("BBV features should split distinct code paths, got %d clusters", bbv.NumClusters)
	}
}

func TestRunWithInterBBV(t *testing.T) {
	sim := gpusim.MustNew(testConfig())
	k := phasedKernel()
	var launches []*kernel.Launch
	for i := 0; i < 4; i++ {
		launches = append(launches, uniformLaunch(k, 150, 8, 3))
	}
	prof := ProfileApp(&kernel.App{Launches: launches})
	opts := DefaultOptions()
	opts.InterBBV = true
	res, err := Run(sim, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.PredictedIPC <= 0 {
		t.Error("no prediction with InterBBV")
	}
	// Identical launches still merge (same BBVs).
	if res.Inter.NumClusters != 1 {
		t.Errorf("identical launches split under BBV features: %d clusters", res.Inter.NumClusters)
	}
}

// The §III example: two launches executing the same basic blocks (equal
// BBVs) but with different control-flow divergence perform differently —
// BBV distance is blind to it, the Eq. 2 features are not.
func TestBBVBlindToDivergence(t *testing.T) {
	k := phasedKernel()
	a := uniformLaunch(k, 30, 8, 3)
	b := uniformLaunch(k, 30, 8, 3)
	for i := range b.Params {
		b.Params[i].ActiveFrac = 0.5
	}
	prof := ProfileApp(&kernel.App{Launches: []*kernel.Launch{a, b}})

	// Identical BBVs...
	pa, pb := prof.Profiles[0], prof.Profiles[1]
	for bi := range pa.BlockCounts {
		if pa.BlockCounts[bi] != pb.BlockCounts[bi] {
			t.Fatalf("BBVs differ at block %d; divergence should not change them", bi)
		}
	}
	// ...but different performance.
	sim := gpusim.MustNew(testConfig())
	ra := sim.RunLaunch(a, gpusim.RunOptions{})
	rb := sim.RunLaunch(b, gpusim.RunOptions{})
	da := float64(ra.Cycles) / float64(ra.SimulatedWarpInsts)
	db := float64(rb.Cycles) / float64(rb.SimulatedWarpInsts)
	if math.Abs(da-db)/da < 0.02 {
		t.Logf("CPIs close (%.4f vs %.4f); divergence effect weak in this config", da, db)
	}
	// The Eq. 2 features separate the launches.
	feats := InterFeatures(prof.Profiles)
	if d := distance(feats[0], feats[1]); d < 0.05 {
		t.Errorf("feature distance %.4f too small for divergent launches", d)
	}
}

func distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestSampleLaunchIsBitReproducible(t *testing.T) {
	// Nine homogeneous phases give several fast-forwarded regions; the
	// predicted cycles sum one term per region and must not depend on map
	// iteration order. Only some orders round differently, so the estimate
	// is repeated 50 times.
	sim := gpusim.MustNew(testConfig())
	k := phasedKernel()
	l := launchWithPhases(k, 3600, [][2]int{{8, 3}, {2, 9}, {16, 1}, {4, 6}, {12, 2}, {1, 12}, {6, 5}, {10, 4}, {3, 7}})
	lp := funcsim.ProfileLaunch(l)
	occ := sim.Config().Limits.SystemOccupancy(k, sim.Config().NumSMs)
	rt := IdentifyRegions(lp, occ, 0.2, 0.3)
	first := SampleLaunch(sim, l, lp, rt, DefaultOptions())
	if n := len(first.SkippedByRegion); n < 3 {
		t.Fatalf("%d regions fast-forwarded, want >= 3 for the order to matter", n)
	}
	for rep := 0; rep < 50; rep++ {
		got := SampleLaunch(sim, l, lp, rt, DefaultOptions())
		if math.Float64bits(got.PredictedCycles) != math.Float64bits(first.PredictedCycles) {
			t.Fatalf("repeat %d: predicted cycles %v, first run %v", rep, got.PredictedCycles, first.PredictedCycles)
		}
	}
}
