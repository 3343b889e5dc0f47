// Command goldencheck is the CI golden-result gate: it re-runs the five
// determinism benchmarks (cfd, mst, stream, lbm, kmeans) under the default
// and the retargeted occ16x8 configuration — the exact sweep
// internal/gpusim's TestGoldenCounters pins — plus the default
// configuration on the epoch-parallel engine (par4: 4 workers, default
// quantum), with metrics collection enabled, and diffs every deterministic
// counter and distribution against the checked-in golden file.
//
// The gate catches what the unit test alone cannot: the goldens pin the
// LaunchResult aggregates, while this tool pins the full internal/metrics
// counter set (issue breakdown, scheduler events, MSHR/DRAM distributions),
// so an instrumentation bug that double-counts without shifting IPC still
// fails CI. Wall-clock phases are deliberately excluded — only
// deterministic quantities are compared.
//
// Usage:
//
//	goldencheck [-golden testdata/golden_metrics.json] [-update]
//
// Exit status 0 when every counter matches, 1 on any divergence or when the
// golden file is missing (run with -update to record it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"tbpoint/internal/durable"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/metrics"
	"tbpoint/internal/par"
	"tbpoint/internal/workloads"
)

// The sweep parameters mirror internal/gpusim/determinism_test.go exactly:
// scale 0.05, seed 7, fixed units of totalInsts/400 clamped to [2000, 1<<20].
const (
	goldenScale = 0.05
	goldenSeed  = 7
)

var goldenBenches = []string{"cfd", "mst", "stream", "lbm", "kmeans"}
var goldenConfigs = []string{"default", "occ16x8", "par4"}

func goldenConfig(name string) gpusim.Config {
	if name == "occ16x8" {
		return gpusim.DefaultConfig().WithOccupancy(16, 8)
	}
	return gpusim.DefaultConfig()
}

// goldenWorkers is the RunOptions.Workers of a configuration: par4 pins the
// epoch-parallel engine, every other configuration the serial one.
func goldenWorkers(name string) int {
	if name == "par4" {
		return 4
	}
	return 0
}

func goldenUnitSize(total int64) int64 {
	u := total / 400
	if u < 2000 {
		u = 2000
	}
	if u > 1<<20 {
		u = 1 << 20
	}
	return u
}

// caseResult is one config/bench cell: the deterministic slice of a metrics
// snapshot (no phases).
type caseResult struct {
	Counters map[string]uint64               `json:"counters,omitempty"`
	Dists    map[string]metrics.DistSnapshot `json:"dists,omitempty"`
}

func runCase(config, bench string) (caseResult, error) {
	spec, err := workloads.ByName(bench)
	if err != nil {
		return caseResult{}, err
	}
	app := spec.Build(workloads.Config{Scale: goldenScale, Seed: goldenSeed})
	sim, err := gpusim.New(goldenConfig(config))
	if err != nil {
		return caseResult{}, err
	}
	mc := metrics.New()
	unit := goldenUnitSize(app.TotalWarpInsts())
	for _, l := range app.Launches {
		sim.RunLaunch(l, gpusim.RunOptions{FixedUnitInsts: unit, CollectBBV: true, Workers: goldenWorkers(config), Metrics: mc})
	}
	snap := mc.Snapshot()
	return caseResult{Counters: snap.Counters, Dists: snap.Dists}, nil
}

func runAll() (map[string]caseResult, error) {
	type cell struct{ config, bench string }
	var cells []cell
	for _, c := range goldenConfigs {
		for _, b := range goldenBenches {
			cells = append(cells, cell{c, b})
		}
	}
	results := make([]caseResult, len(cells))
	errs := make([]error, len(cells))
	par.ForEach(len(cells), func(i int) error {
		results[i], errs[i] = runCase(cells[i].config, cells[i].bench)
		return errs[i]
	})
	out := map[string]caseResult{}
	for i, c := range cells {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[c.config+"/"+c.bench] = results[i]
	}
	return out, nil
}

func diffCase(name string, want, got caseResult) []string {
	var diffs []string
	keys := map[string]bool{}
	for k := range want.Counters {
		keys[k] = true
	}
	for k := range got.Counters {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		if want.Counters[k] != got.Counters[k] {
			diffs = append(diffs, fmt.Sprintf("%s: counter %s = %d, golden %d",
				name, k, got.Counters[k], want.Counters[k]))
		}
	}
	dkeys := map[string]bool{}
	for k := range want.Dists {
		dkeys[k] = true
	}
	for k := range got.Dists {
		dkeys[k] = true
	}
	for _, k := range sortedKeys(dkeys) {
		if want.Dists[k] != got.Dists[k] {
			diffs = append(diffs, fmt.Sprintf("%s: dist %s = %+v, golden %+v",
				name, k, got.Dists[k], want.Dists[k]))
		}
	}
	return diffs
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func main() {
	goldenPath := flag.String("golden", "testdata/golden_metrics.json", "golden metrics file")
	update := flag.Bool("update", false, "regenerate the golden file instead of checking")
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "goldencheck: "+format+"\n", args...)
		os.Exit(1)
	}

	got, err := runAll()
	if err != nil {
		fail("%v", err)
	}

	if *update {
		if err := os.MkdirAll(dirOf(*goldenPath), 0o755); err != nil {
			fail("%v", err)
		}
		err := durable.WriteFile(*goldenPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(got)
		})
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("goldencheck: wrote %d cases to %s\n", len(got), *goldenPath)
		return
	}

	f, err := os.Open(*goldenPath)
	if err != nil {
		fail("%v (run `go run ./cmd/goldencheck -update` to record goldens)", err)
	}
	var want map[string]caseResult
	err = json.NewDecoder(f).Decode(&want)
	f.Close()
	if err != nil {
		fail("decoding %s: %v", *goldenPath, err)
	}

	var diffs []string
	names := map[string]bool{}
	for k := range want {
		names[k] = true
	}
	for k := range got {
		names[k] = true
	}
	for _, name := range sortedKeys(names) {
		w, okW := want[name]
		g, okG := got[name]
		switch {
		case !okW:
			diffs = append(diffs, fmt.Sprintf("%s: present in run, missing from golden", name))
		case !okG:
			diffs = append(diffs, fmt.Sprintf("%s: present in golden, missing from run", name))
		default:
			diffs = append(diffs, diffCase(name, w, g)...)
		}
	}
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "goldencheck:", d)
		}
		fail("%d divergence(s) from %s — if the behaviour change is intentional and documented, regenerate with -update", len(diffs), *goldenPath)
	}
	fmt.Printf("goldencheck: %d cases match %s\n", len(got), *goldenPath)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
