package core

import (
	"sort"

	"tbpoint/internal/funcsim"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
)

// samplerState is the homogeneous-region sampling state machine (§IV-B2).
type samplerState int

const (
	stateOutside samplerState = iota
	stateWarming
	stateFastForward
)

// LaunchSample is the outcome of simulating one launch under homogeneous
// region sampling.
type LaunchSample struct {
	// Result is the raw simulation result of the non-skipped portion.
	Result *gpusim.LaunchResult
	// TotalInsts is the launch's full warp-instruction count (from the
	// profile), including skipped blocks.
	TotalInsts int64
	// SimulatedInsts is what actually ran.
	SimulatedInsts int64
	// SkippedInsts is TotalInsts - SimulatedInsts.
	SkippedInsts int64
	// PredictedCycles is the predicted full-launch duration: simulated
	// cycles plus each fast-forwarded region's skipped instructions divided
	// by the region's sampled IPC (Table IV).
	PredictedCycles float64
	// RegionIPC maps region ID -> IPC recorded at the end of the region's
	// warming period (only regions that reached fast-forwarding appear).
	RegionIPC map[int]float64
	// SkippedByRegion maps region ID -> skipped warp instructions.
	SkippedByRegion map[int]int64
	// WarmUnits counts sampling units spent warming (diagnostics for the
	// Fig. 13 discussion of long warming periods).
	WarmUnits int
}

// PredictedIPC returns the launch's predicted whole-GPU IPC.
func (ls *LaunchSample) PredictedIPC() float64 {
	if ls.PredictedCycles <= 0 {
		return 0
	}
	return float64(ls.TotalInsts) / ls.PredictedCycles
}

// regionSampler implements the entering / warming / fast-forwarding /
// exiting protocol against the simulator hooks.
type regionSampler struct {
	rt      *RegionTable
	profile *funcsim.LaunchProfile
	tol     float64 // warm-up IPC tolerance (the paper's 10%)
	stable  int     // consecutive stable comparisons required
	window  int     // trend-check distance (0 = disabled)
	// windowRegions marks the region IDs large enough for the trend check
	// (>= WarmWindowMinRegion occupancy generations).
	windowRegions map[int]bool

	state       samplerState
	current     int         // region being sampled
	resident    map[int]int // live thread block -> region
	prevIPC     float64
	havePrev    bool
	stableCount int
	history     []float64 // unit IPCs since entering the region

	regionIPC       map[int]float64
	skippedByRegion map[int]int64
	warmUnits       int
}

func newRegionSampler(rt *RegionTable, lp *funcsim.LaunchProfile, opts Options) *regionSampler {
	stable := opts.WarmStable
	if stable < 1 {
		stable = 1
	}
	s := &regionSampler{
		rt:              rt,
		profile:         lp,
		tol:             opts.WarmTol,
		stable:          stable,
		window:          opts.WarmWindow,
		windowRegions:   make(map[int]bool),
		current:         -1,
		resident:        make(map[int]int),
		regionIPC:       make(map[int]float64),
		skippedByRegion: make(map[int]int64),
	}
	if opts.WarmWindow > 0 {
		counts := map[int]int{}
		for _, r := range rt.RegionOf {
			counts[r]++
		}
		occ := rt.Occupancy
		if occ < 1 {
			occ = 1
		}
		min := opts.WarmWindowMinRegion * occ
		for r, c := range counts {
			if opts.WarmWindowMinRegion <= 0 || c >= min {
				s.windowRegions[r] = true
			}
		}
	}
	return s
}

func (s *regionSampler) regionOf(tb int) int {
	if tb < 0 || tb >= len(s.rt.RegionOf) {
		return -1
	}
	return s.rt.RegionOf[tb]
}

// skipTB is the fast-forwarding decision: skip only while fast-forwarding
// and only blocks of the current region.
func (s *regionSampler) skipTB(tb int) bool {
	if s.state != stateFastForward {
		return false
	}
	if s.regionOf(tb) != s.current {
		// A block from a different region exits the region (§IV-B2
		// "Exiting"); it will be dispatched and simulated normally.
		s.exitRegion()
		return false
	}
	return true
}

func (s *regionSampler) onSkip(tb int) {
	s.skippedByRegion[s.current] += s.profile.Blocks[tb].WarpInsts
}

func (s *regionSampler) onDispatch(tb int) {
	r := s.regionOf(tb)
	s.resident[tb] = r
	switch s.state {
	case stateOutside:
		s.maybeEnter()
	case stateWarming, stateFastForward:
		if r != s.current {
			s.exitRegion()
			s.maybeEnter()
		}
	}
}

func (s *regionSampler) onRetire(tb int) {
	delete(s.resident, tb)
	if s.state == stateOutside {
		s.maybeEnter()
		return
	}
	// Idle gap while warming: the last resident block just retired, so any
	// warming evidence (pairwise IPC, stability streak, trend history) was
	// measured before a dispatch gap and must not let units after the gap
	// satisfy the stability check against pre-gap cache state. Drop the
	// evidence but keep the state — the retire hook fires before the
	// replacement dispatch, so this window is often transient, and the unit
	// closing at this retirement must still count as a warming unit.
	if s.state == stateWarming && len(s.resident) == 0 {
		s.havePrev = false
		s.stableCount = 0
		s.history = s.history[:0]
	}
}

// maybeEnter checks the entering condition: all concurrently running
// thread blocks belong to the same homogeneous region.
func (s *regionSampler) maybeEnter() {
	if len(s.resident) == 0 {
		return
	}
	r := -2
	for _, reg := range s.resident {
		if r == -2 {
			r = reg
			continue
		}
		if reg != r {
			return
		}
	}
	if r < 0 {
		return
	}
	s.current = r
	if _, warmed := s.regionIPC[r]; warmed {
		// The cluster's IPC was sampled in an earlier run of this region
		// ID; fast-forward immediately (the paper reuses cluster IDs as
		// region IDs for exactly this amortisation).
		s.state = stateFastForward
		return
	}
	s.state = stateWarming
	s.havePrev = false
	s.stableCount = 0
	s.history = s.history[:0]
}

func (s *regionSampler) exitRegion() {
	s.state = stateOutside
	s.current = -1
	s.havePrev = false
	s.stableCount = 0
	s.history = s.history[:0]
}

// onUnitClose drives the warming period: when two consecutive sampling
// units inside the region agree within the tolerance, the cache state is
// considered stable and fast-forwarding begins, predicting the region's
// IPC as the last warming unit's IPC.
func (s *regionSampler) onUnitClose(u gpusim.UnitStats) {
	if s.state != stateWarming {
		return
	}
	// Only units whose specified block belongs to the current region count
	// as warming units for it.
	if s.regionOf(u.SpecifiedTB) != s.current {
		return
	}
	ipc := u.IPC()
	s.warmUnits++
	s.history = append(s.history, ipc)
	if s.havePrev && s.prevIPC > 0 {
		diff := ipc - s.prevIPC
		if diff < 0 {
			diff = -diff
		}
		if diff/s.prevIPC < s.tol {
			s.stableCount++
			if s.stableCount >= s.stable && s.trendStable(ipc) {
				s.state = stateFastForward
				s.regionIPC[s.current] = ipc
				return
			}
		} else {
			s.stableCount = 0
		}
	}
	s.prevIPC = ipc
	s.havePrev = true
}

// trendStable applies the WarmWindow drift check: the current unit must be
// within tol/4 of the unit `window` positions earlier. With the window
// disabled — globally or for this (short) region — it is always satisfied.
func (s *regionSampler) trendStable(ipc float64) bool {
	if s.window <= 0 || !s.windowRegions[s.current] {
		return true
	}
	n := len(s.history)
	if n <= s.window {
		return false // not enough history inside this region yet
	}
	ref := s.history[n-1-s.window]
	if ref <= 0 {
		return false
	}
	diff := ipc - ref
	if diff < 0 {
		diff = -diff
	}
	return diff/ref < s.tol/4
}

// SampleLaunch simulates launch l with homogeneous region sampling using
// the given region table, returning the sampled result and prediction.
// The region table's occupancy should equal the simulator configuration's
// system occupancy for the launch's kernel (Retarget handles this).
func SampleLaunch(sim *gpusim.Simulator, l *kernel.Launch, lp *funcsim.LaunchProfile,
	rt *RegionTable, opts Options) *LaunchSample {

	rs := newRegionSampler(rt, lp, opts)
	hooks := &gpusim.Hooks{
		SkipTB:       rs.skipTB,
		OnTBSkip:     func(tb int, cycle int64) { rs.onSkip(tb) },
		OnTBDispatch: func(tb, sm int, cycle int64) { rs.onDispatch(tb) },
		OnTBRetire:   func(tb, sm int, cycle int64) { rs.onRetire(tb) },
		OnUnitClose:  rs.onUnitClose,
	}
	res := sim.RunLaunch(l, gpusim.RunOptions{Hooks: hooks, Metrics: opts.Metrics, Ctx: opts.Ctx,
		Workers: opts.SimWorkers, Quantum: opts.SimQuantum})

	ls := &LaunchSample{
		Result:          res,
		TotalInsts:      lp.TotalWarpInsts(),
		SimulatedInsts:  res.SimulatedWarpInsts,
		RegionIPC:       rs.regionIPC,
		SkippedByRegion: rs.skippedByRegion,
		WarmUnits:       rs.warmUnits,
	}
	ls.SkippedInsts = ls.TotalInsts - ls.SimulatedInsts

	// Table IV: predicted launch cycles = simulated cycles plus the
	// fast-forwarded instructions at each region's sampled IPC.
	// Regions in ascending id, so the float sum is the same on every run.
	regions := make([]int, 0, len(rs.skippedByRegion))
	for r := range rs.skippedByRegion {
		regions = append(regions, r)
	}
	sort.Ints(regions)
	pred := float64(res.Cycles)
	for _, r := range regions {
		skipped := rs.skippedByRegion[r]
		ipc := rs.regionIPC[r]
		if ipc <= 0 {
			// Defensive: a region was skipped without a recorded IPC
			// (cannot happen through the state machine); fall back to the
			// run's aggregate IPC.
			if agg := res.TotalIPC(); agg > 0 {
				ipc = agg
			} else {
				ipc = 1
			}
		}
		pred += float64(skipped) / ipc
	}
	ls.PredictedCycles = pred
	return ls
}
