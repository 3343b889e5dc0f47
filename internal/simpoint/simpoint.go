// Package simpoint implements the Ideal-Simpoint baseline of §V-A: basic
// block vectors are collected for every fixed-size sampling unit during a
// full timing simulation ("Ideal" because, unlike on a CPU, the
// per-sampling-unit instruction mix of a GPU cannot be known without the
// full timing simulation — warp scheduling decides what runs in each
// unit), the BBVs are clustered with k-means under the Bayesian
// information criterion, and the overall performance is predicted from one
// representative unit per cluster via Eq. 1.
package simpoint

import (
	"sort"

	"tbpoint/internal/cluster"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampling"
)

// Options configure the baseline.
type Options struct {
	// MaxK bounds the number of clusters k-means may choose.
	MaxK int
	// BICFrac is the SimPoint rule: pick the smallest k whose
	// (range-normalised) BIC score is at least this fraction of the best.
	BICFrac float64
	// Seed feeds k-means++ initialisation.
	Seed uint64
}

// DefaultOptions mirror the SimPoint tool's usual settings.
func DefaultOptions() Options { return Options{MaxK: 30, BICFrac: 0.9, Seed: 1} }

// Result describes the chosen simulation points.
type Result struct {
	Estimate sampling.Estimate
	// K is the number of clusters (simulation points).
	K int
	// Points are the selected unit indices (into the concatenated unit
	// list), one per cluster.
	Points []int
	// Assign maps each unit to its cluster.
	Assign []int
}

// normalizeBBV converts a unit's BBV into a frequency vector of the given
// dimension (Eq. 1's normalisation by total instruction count).
func normalizeBBV(u gpusim.FixedUnit, dim int) []float64 {
	v := make([]float64, dim)
	if u.WarpInsts == 0 {
		return v
	}
	for b, c := range u.BBV {
		if b < dim {
			v[b] = float64(c) / float64(u.WarpInsts)
		}
	}
	return v
}

// Run applies Ideal-Simpoint to a completed full simulation whose fixed
// units carry BBVs.
func Run(full *sampling.AppRun, opts Options) Result {
	units, launchOf := full.AllFixedUnits()
	res := Result{Estimate: sampling.Estimate{Technique: "Ideal-Simpoint"}}
	if len(units) == 0 {
		return res
	}

	dim := 0
	for _, u := range units {
		if len(u.BBV) > dim {
			dim = len(u.BBV)
		}
	}
	if dim == 0 {
		// No BBVs collected; treat every unit as identical (degenerate but
		// well defined).
		dim = 1
	}
	points := make([][]float64, len(units))
	for i, u := range units {
		points[i] = normalizeBBV(u, dim)
	}

	maxK := opts.MaxK
	if maxK < 1 {
		maxK = 1
	}
	km := cluster.KMeansBIC(points, maxK, opts.BICFrac, opts.Seed)
	res.K = km.K
	res.Assign = km.Assign
	reps := cluster.Representatives(points, km.Assign)

	// Eq. 1: Total_CPI = sum over phases of representative CPI * weight.
	members := cluster.Members(km.Assign)
	totalInsts := full.TotalInsts()
	var predCycles float64
	var selInsts int64
	selectedUnit := map[int]bool{}
	// Clusters in ascending id, so Points and the float sum are the same
	// on every run.
	cids := make([]int, 0, len(members))
	for cid := range members {
		cids = append(cids, cid)
	}
	sort.Ints(cids)
	for _, cid := range cids {
		idxs := members[cid]
		rep := reps[cid]
		res.Points = append(res.Points, rep)
		selectedUnit[rep] = true
		selInsts += units[rep].WarpInsts
		repCPI := 0.0
		if units[rep].WarpInsts > 0 {
			repCPI = float64(units[rep].Cycles) / float64(units[rep].WarpInsts)
		}
		var clusterInsts int64
		for _, i := range idxs {
			clusterInsts += units[i].WarpInsts
		}
		predCycles += repCPI * float64(clusterInsts)
	}

	est := &res.Estimate
	est.PredictedCycles = predCycles
	if predCycles > 0 {
		est.PredictedIPC = float64(totalInsts) / predCycles
	}
	est.SampleSize = float64(selInsts) / float64(totalInsts)

	// Fig. 11 attribution: skipped units in launches with no selected unit
	// count as inter-launch savings; the rest as intra-launch.
	launchSelected := map[int]bool{}
	for i := range units {
		if selectedUnit[i] {
			launchSelected[launchOf[i]] = true
		}
	}
	for i, u := range units {
		if selectedUnit[i] {
			continue
		}
		if launchSelected[launchOf[i]] {
			est.SkippedIntraInsts += u.WarpInsts
		} else {
			est.SkippedInterInsts += u.WarpInsts
		}
	}
	return res
}
