// Command perfbench is the repository benchmark. It runs one named workload
// from a seed for a fixed time, checks the program's outputs, and prints
// its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 36, "failed": 0, "metrics": {"wall_s": {"value": 1.53, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// also records spans around every call into a layer and prints the
// per-layer set instead. README.md beside this file explains the
// workloads, the metrics and what each layer metric predicts.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload served-mix --seed 1 --seconds 15 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The seed a result is tuned and reported on, and a second seed held out
// from tuning so that a later claim can be checked on inputs it was not
// fitted to.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// endToEnd are the metrics a -trace 0 run prints: what a user of the
// simulator sees on every workload.
var endToEnd = []string{"setup_s", "wall_s", "sim_wips", "peak_rss_mb"}

// perLayer are the metrics a -trace 1 run prints, every one on every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []string{
	"gpusim.fullref_busy_s", "gpusim.ns_per_warp_inst", "gpusim.sampled_busy_s", "gpusim.par_ns_per_warp_inst",
	"sim.cycles", "sim.warp_insts", "sched.wake_pushes",
	"mem.l1_hit_ratio", "mem.l2_hit_ratio", "mem.dram_row_hit_ratio", "mem.dram_queue_wait_mean",
	"funcsim.profile_busy_s",
	"cluster.inter_busy_s", "core.clusters",
	"core.region_id_busy_s", "core.regions", "core.warm_units", "core.simulated_insts",
	"sampler.random_busy_s", "sampler.simpoint_busy_s", "sampler.tbpoint_busy_s",
	"experiments.busy_share", "par.acquire_denied",
	"server.submit_s", "server.queue_wait_s", "server.run_s", "server.result_s",
	"server.cell_hit_ratio", "server.subcell_hit_ratio", "durable.evictions", "durable.cache_mb",
	"job_p50_s", "job_p90_s", "hit_job_p50_s",
	"served.hit_share", "served.subcell_share", "served.cold_share",
	"served.hit_time_share", "served.subcell_time_share", "served.cold_time_share",
	"tbpoint_err_pct", "tbpoint_sample_pct", "fail_frac",
	"trace.overhead_pct", "trace.reconcile_ratio",
}

// units names each metric's unit; every metric either list names must
// appear here.
var units = map[string]string{
	"setup_s": "s", "wall_s": "s", "sim_wips": "1/s", "peak_rss_mb": "MB",

	"gpusim.fullref_busy_s": "s", "gpusim.ns_per_warp_inst": "ns", "gpusim.sampled_busy_s": "s",
	"gpusim.par_ns_per_warp_inst": "ns",
	"sim.cycles":                  "count", "sim.warp_insts": "count", "sched.wake_pushes": "count",
	"mem.l1_hit_ratio": "ratio", "mem.l2_hit_ratio": "ratio", "mem.dram_row_hit_ratio": "ratio",
	"mem.dram_queue_wait_mean": "cycles",
	"funcsim.profile_busy_s":   "s",
	"cluster.inter_busy_s":     "s", "core.clusters": "count",
	"core.region_id_busy_s": "s", "core.regions": "count", "core.warm_units": "count", "core.simulated_insts": "count",
	"sampler.random_busy_s": "s", "sampler.simpoint_busy_s": "s", "sampler.tbpoint_busy_s": "s",
	"experiments.busy_share": "ratio", "par.acquire_denied": "count",
	"server.submit_s": "s", "server.queue_wait_s": "s", "server.run_s": "s", "server.result_s": "s",
	"server.cell_hit_ratio": "ratio", "server.subcell_hit_ratio": "ratio", "durable.evictions": "count",
	"durable.cache_mb": "MB",
	"job_p50_s":        "s", "job_p90_s": "s", "hit_job_p50_s": "s",
	"served.hit_share": "ratio", "served.subcell_share": "ratio", "served.cold_share": "ratio",
	"served.hit_time_share": "ratio", "served.subcell_time_share": "ratio", "served.cold_time_share": "ratio",
	"tbpoint_err_pct": "%", "tbpoint_sample_pct": "%", "fail_frac": "ratio",
	"trace.overhead_pct": "%", "trace.reconcile_ratio": "ratio",
}

// workloadFuncs maps each workload name to the function that sets it up,
// measures it and checks it.
var workloadFuncs = map[string]func(*run) error{
	"accuracy-grid":      accuracyGrid,
	"tbpoint-paperscale": tbpointPaperscale,
	"served-mix":         servedMix,
	"bigkernel-parsm":    bigkernelParsm,
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	commit   string
	out      string
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
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "none", "git commit of the measured tree, for the record")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for state, records and spans")
	flag.Parse()
	fn, ok := workloadFuncs[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}

	r := newRun(cfg)
	if err := fn(r); err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	r.notes["process_peak_rss_mb"] = processPeakRSSMB()
	res, err := r.result()
	if err != nil {
		fatal(err)
	}
	if err := r.writeRecord(res); err != nil {
		fatal(err)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFuncs))
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is one benchmark invocation's accumulating state.
type run struct {
	cfg       config
	tr        *tracer                    // nil unless -trace 1
	passSelf  []map[string]time.Duration // per traced pass: self time by span name
	values    map[string]float64
	samples   map[string]summary // the timings behind values, for the record
	attempted int
	failed    int
	problems  []string
	notes     map[string]any // workload-specific facts for the record
	idle      float64        // worker seconds the last traced pass left idle
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, values: map[string]float64{}, samples: map[string]summary{}, notes: map[string]any{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *run) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	r.values[name] = v
}

// setTiming sets name to the median of xs and records the summary.
func (r *run) setTiming(name string, xs []float64) {
	r.samples[name] = summarize(xs)
	r.set(name, median(xs))
}

// check records a failed output check when ok is false; a failure seen
// again in a later pass is recorded once.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	p := fmt.Sprintf(format, args...)
	for _, q := range r.problems {
		if q == p {
			return
		}
	}
	r.problems = append(r.problems, p)
}

// op counts one attempted operation and whether it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.check(false, "%v", err)
	}
}

// result selects the metric set the run mode prints. An end-to-end metric
// the workload did not produce is a bug in this program; a per-layer metric
// it did not produce belongs to a layer the workload does not run.
func (r *run) result() (result, error) {
	names := endToEnd
	if r.cfg.trace {
		names = perLayer
		r.set("fail_frac", float64(r.failed)/math.Max(1, float64(r.attempted)))
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range names {
		v, ok := r.values[n]
		if !ok && !r.cfg.trace {
			return res, fmt.Errorf("workload %s produced no %s", r.cfg.workload, n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("workload %s produced a non-finite %s", r.cfg.workload, n)
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	return res, nil
}

// writeRecord prints the run's provenance record (host, build, seed, run
// length, sample counts) as one JSON line ahead of the result, and saves it
// with the result — and, for a traced run, with every span — under -out.
func (r *run) writeRecord(res result) error {
	rec := map[string]any{
		"workload":      r.cfg.workload,
		"seed":          r.cfg.seed,
		"default_seed":  defaultSeed,
		"held_out_seed": heldOutSeed,
		"seconds":       r.cfg.seconds,
		"trace":         r.cfg.trace,
		"host":          hostInfo(r.cfg.commit),
		"samples":       r.samples,
		"notes":         r.notes,
		"problems":      r.problems,
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	rec["result"] = res
	if r.tr != nil {
		rec["spans"] = r.tr.snapshot()
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.cfg.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%s.json", r.cfg.workload, r.cfg.seed, mode, time.Now().UTC().Format("20060102T150405"))
	dir := filepath.Join(r.cfg.out, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// processPeakRSSMB is the peak resident set over the whole process, set-up
// and warm-up included.
func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // the record notes an unknown peak as 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
