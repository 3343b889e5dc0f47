package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tbpoint/internal/metrics"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupRepeats = 31

// minPasses is the fewest timed untraced passes a run makes, however long
// they take, so wall_s is always a median.
const minPasses = 3

// timer starts a stopwatch; calling the result returns the seconds since.
func timer() func() float64 {
	t0 := time.Now()
	return func() float64 { return time.Since(t0).Seconds() }
}

// measureSetup runs f setupRepeats times and sets setup_s to the median.
// Each repetition starts from a collected heap, as each timed pass does, so
// the garbage the last repetition left is not collected inside the next.
func (r *run) measureSetup(f func() error) error {
	xs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		debug.FreeOSMemory()
		t := timer()
		if err := f(); err != nil {
			return err
		}
		xs = append(xs, t())
	}
	r.setTiming("setup_s", xs)
	return nil
}

// pass is what one pass of a workload is told: the tracer to record into
// (nil unless the pass is traced), the pass's root span, and whether it is
// the untimed warm-up pass, whose outputs are checked but not measured.
type pass struct {
	tr   *tracer
	root int
	warm bool
}

// passFunc runs one pass and returns the warp instructions it accounts
// for, the numerator of sim_wips.
type passFunc func(p pass) (work float64, err error)

// timing is one timed pass.
type timing struct {
	wall, cpu, work float64
}

// timePass runs one pass and times it. Each pass starts from a collected
// heap with its free memory returned to the OS, so the peak resident set
// it reports is its own.
func timePass(f passFunc, p pass) (t timing, peakMB float64, err error) {
	debug.FreeOSMemory()
	stop := watchRSS()
	t0, c0 := time.Now(), cpuSeconds()
	t.work, err = f(p)
	t.wall, t.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	peakMB, rssErr := stop()
	if err == nil {
		err = rssErr
	}
	return t, peakMB, err
}

// rssInterval is how often watchRSS samples the resident set.
const rssInterval = 5 * time.Millisecond

// watchRSS samples the process's resident set every rssInterval until the
// returned stop is called, which returns the highest sample in MB.
func watchRSS() (stop func() (float64, error)) {
	var peak int64
	var err error
	sample := func() {
		var b int64
		if b, err = residentBytes(); err == nil && b > peak {
			peak = b
		}
	}
	sample()
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for err == nil {
			select {
			case <-done:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() (float64, error) {
		close(done)
		<-stopped
		if err == nil {
			sample()
		}
		return float64(peak) / (1 << 20), err
	}
}

// residentBytes reads the process's resident set size.
func residentBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize()), err
}

// hostSteal reads the steal and total CPU time, in ticks, of every CPU
// from /proc/stat (zeros where it cannot be read).
func hostSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only the record's CPU times use this; they read 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// reconcileLo and reconcileHi bound trace.reconcile_ratio: outside them,
// the layer spans miss part of a pass's work or count some of it twice.
const reconcileLo, reconcileHi = 0.85, 1.15

// measure runs the workload's passes under the run's mode and sets wall_s
// and sim_wips from the untraced ones, recording each pass's CPU time too.
// A traced run alternates untraced and traced passes, so that a drift in
// the host's speed during the run lands on both alike, and sets the tracing
// overhead and reconciliation. workers is how many goroutines make layer
// calls at once, and layers names the spans behind the per-layer metrics:
// the reconciliation compares, for each traced pass, those spans' summed
// self time — the benchmark's own wrapper spans left out — plus the worker
// idle time the pass reported in r.idle with the pass's wall time times
// workers, and fails the run when the median is outside the tolerance.
func (r *run) measure(f passFunc, workers int, layers ...string) error {
	// One untimed pass first lets the process's lazy start-up — heap
	// growth, the simulator's arena pool, first-use initialisation — finish
	// before timing, as it has in any process that simulates more than once.
	if _, err := f(pass{warm: true}); err != nil {
		return err
	}
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	steal0, total0 := hostSteal()
	defer func() {
		// The share of the host's CPU time the hypervisor gave to others
		// while this run measured: a run with a high share ran slow for
		// reasons outside the program.
		if steal1, total1 := hostSteal(); total1 > total0 {
			r.notes["steal_share"] = float64(steal1-steal0) / float64(total1-total0)
		}
	}()
	var untraced, traced []timing
	var peaks, layer, idle []float64
	start := time.Now()
	for len(untraced) < minPasses || time.Since(start) < budget {
		t, peak, err := timePass(f, pass{})
		if err != nil {
			return err
		}
		untraced = append(untraced, t)
		peaks = append(peaks, peak)
		if !r.cfg.trace {
			continue
		}
		before := len(r.tr.snapshot())
		root := r.tr.begin("pass", 0)
		t, _, err = timePass(f, pass{tr: r.tr, root: root})
		r.tr.end(root)
		if err != nil {
			return err
		}
		traced = append(traced, t)
		self := selfTimes(r.tr.snapshot()[before:])
		r.passSelf = append(r.passSelf, self)
		var sum time.Duration
		for _, name := range layers {
			sum += self[name]
		}
		layer = append(layer, sum.Seconds()+r.idle)
		idle = append(idle, r.idle)
		r.idle = 0
	}
	walls, cpus, rates := make([]float64, len(untraced)), make([]float64, len(untraced)), make([]float64, len(untraced))
	for i, t := range untraced {
		walls[i], cpus[i], rates[i] = t.wall, t.cpu, t.work/t.wall
	}
	r.setTiming("wall_s", walls)
	r.setTiming("sim_wips", rates)
	r.setTiming("peak_rss_mb", peaks)
	r.notes["cpu_s"] = summarize(cpus)
	if !r.cfg.trace {
		return nil
	}
	tw, covered := make([]float64, len(traced)), make([]float64, len(traced))
	for i, t := range traced {
		tw[i] = t.wall
		covered[i] = layer[i] / (t.wall * float64(workers))
	}
	r.notes["traced_wall_s"] = summarize(tw)
	r.notes["idle_worker_s"] = summarize(idle)
	r.set("trace.overhead_pct", (median(tw)/median(walls)-1)*100)
	// Against the untraced passes the ratio also carries the tracing
	// overhead and the host's pass-to-pass drift, which on a shared host
	// reach 10-30%; against each traced pass's own wall time it carries
	// only what the spans miss or count twice, which is what is checked.
	r.notes["reconcile_untraced"] = median(layer) / (median(walls) * float64(workers))
	ratio := median(covered)
	r.set("trace.reconcile_ratio", ratio)
	r.check(reconcileLo <= ratio && ratio <= reconcileHi,
		"%s: layer self time is %.3f of traced wall time x %d workers, outside %.2f-%.2f",
		r.cfg.workload, ratio, workers, reconcileLo, reconcileHi)
	return nil
}

// layerBusy sets each busy metric to the median, over traced passes, of
// the self time its span name adds up to in a pass.
func (r *run) layerBusy(metricOf map[string]string) {
	for spanName, metricName := range metricOf {
		r.setTiming(metricName, r.spanSelf(spanName))
	}
}

// spanNames returns the span names of a layerBusy map, plus extra: the
// layer spans a workload's reconciliation sums.
func spanNames(metricOf map[string]string, extra ...string) []string {
	for name := range metricOf {
		extra = append(extra, name)
	}
	return extra
}

// spanSelf returns, for each traced pass, the self time in seconds of the
// spans named name.
func (r *run) spanSelf(name string) []float64 {
	xs := make([]float64, len(r.passSelf))
	for i, st := range r.passSelf {
		xs[i] = st[name].Seconds()
	}
	return xs
}

// simCounts sets the simulated-statistics metrics from one pass's
// collector. They are deterministic for a seed: a change that only speeds
// the simulator up must leave every one of them identical.
func (r *run) simCounts(s metrics.Snapshot) {
	c := s.Counters
	ratio := ratioOf
	r.set("sim.cycles", float64(c["sim.cycles"]))
	r.set("sim.warp_insts", float64(c["sim.warp_insts"]))
	r.set("sched.wake_pushes", float64(c["sched.wake_pushes"]))
	r.set("mem.l1_hit_ratio", ratio(c["mem.l1_hits"], c["mem.l1_misses"]))
	r.set("mem.l2_hit_ratio", ratio(c["mem.l2_hits"], c["mem.l2_misses"]))
	r.set("mem.dram_row_hit_ratio", ratio(c["mem.dram_row_hits"], c["mem.dram_accesses"]-c["mem.dram_row_hits"]))
	r.set("mem.dram_queue_wait_mean", s.Dists["mem.dram_queue_wait"].Mean())
}

// sameSimCounts reports whether two collectors hold the same simulated
// cycles and warp instructions.
func sameSimCounts(a, b *metrics.Collector) bool {
	return a.Count(metrics.SimCycles) == b.Count(metrics.SimCycles) &&
		a.Count(metrics.SimWarpInsts) == b.Count(metrics.SimWarpInsts)
}

// hostInfo is the provenance every record carries.
func hostInfo(commit string) map[string]any {
	return map[string]any{
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"git_commit":  commit,
		"source_hash": sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and module file under root (skipping
// hidden and build directories), so a record names the exact tree it
// measured even where there is no git commit to name.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the hash
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
