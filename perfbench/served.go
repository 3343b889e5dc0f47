package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tbpoint/internal/durable"
	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
	"tbpoint/internal/workloads"
)

// The served job mix: small accuracy jobs, so a pass holds enough jobs for
// a tail percentile, from two tenants in a closed loop, against a cache
// budget small enough that cold jobs evict one another.
const (
	servedScale   = 0.02
	servedTenants = 2
	benchesPerJob = 2
	// servedCacheBytes holds a few jobs' cells and artifacts, so the oldest
	// cold jobs are evicted while each tenant's latest job, which its next
	// hit or sub-cell job reuses, always stays.
	servedCacheBytes = 1536 << 10
	// servedTimeout bounds a pass; no pass comes near it.
	servedTimeout = 150 * time.Second
)

// The job classes of the mix. A cold job is a new workload seed, run in
// full and cached. A hit resubmits the tenant's last job unchanged and is
// served from cached cells. A sub-cell job reruns the tenant's last
// workload with every sampler instead of the default three: its cells are
// new, but profile, clustering and full reference come from the sub-cell
// cache, so only the samplers run.
const (
	classHit     = "hit"
	classSubcell = "subcell"
	classCold    = "cold"
)

// followUps are the jobs after each cold job, in an order the seed
// shuffles; with the cold job they fix the mix at 25% cold, 50% hit and
// 25% sub-cell, so seeds change which jobs run but not the mix's weight.
var followUps = []string{classHit, classHit, classSubcell}

type plannedJob struct {
	class string
	spec  server.JobSpec
}

// planJobs generates each tenant's job sequence from the seed. Each
// tenant's cold jobs cover all 12 benchmarks once, in fixed pairs (tenant 1
// pairs them one place over from tenant 0, and runs its blocks in reverse
// order); the seed sets every workload's seed and the order of each
// block's follow-ups. Fixing the pairs keeps how the two tenants' heavy
// jobs overlap, and so the pass's critical path, the same from seed to seed.
func planJobs(seed uint64) [][]plannedJob {
	rng := rand.New(rand.NewPCG(seed, 0x5e4fed))
	names := workloads.Names()
	blocks := len(names) / benchesPerJob
	plans := make([][]plannedJob, servedTenants)
	for t := range plans {
		for k := 0; k < blocks; k++ {
			b := k
			if t%2 == 1 {
				b = blocks - 1 - k
			}
			benches := make([]string, benchesPerJob)
			for i := range benches {
				benches[i] = names[(b*benchesPerJob+i+t)%len(names)]
			}
			last := server.JobSpec{
				Targets:    []string{"accuracy"},
				Scale:      servedScale,
				Seed:       seed*1_000_003 + uint64(t)*1_009 + uint64(b),
				Benchmarks: benches,
				Client:     fmt.Sprintf("tenant-%d", t),
			}
			plans[t] = append(plans[t], plannedJob{class: classCold, spec: last})
			order := append([]string(nil), followUps...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, class := range order {
				if class == classSubcell {
					last.Samplers = []string{"all"}
				}
				plans[t] = append(plans[t], plannedJob{class: class, spec: last})
			}
		}
	}
	return plans
}

// servedJob is one job's outcome as its tenant saw it.
type servedJob struct {
	planned  plannedJob
	latency  float64 // submit until the terminal /events status
	submit   float64 // the Submit call, journal fsync included
	result   float64 // the Result download
	final    server.JobStatus
	data     []byte
	err      error
	measured string // the class the cache counters show
}

// servedPassStats are one pass's server-wide numbers.
type servedPassStats struct {
	jobs              []servedJob
	counters          map[string]uint64
	cacheBytes        int64
	delivered         int64              // warp instructions the pass's results cover
	phases            map[string]float64 // job phase seconds, summed over the pass
	queueWait, runDur []float64
}

// servedMix drives an in-process job server over HTTP with two tenants,
// each submitting its next job only when its last one has ended.
func servedMix(r *run) error {
	var plans [][]plannedJob
	stateDir := filepath.Join(r.cfg.out, "served-state")

	// Set-up generates the job sequence and the instruction totals its
	// results cover. Starting the server on an empty state directory is
	// part of every pass instead.
	totals := map[string]int64{}
	if err := r.measureSetup(func() error {
		plans = planJobs(r.cfg.seed)
		for _, plan := range plans {
			for _, j := range plan {
				for _, b := range j.spec.Benchmarks {
					spec, err := workloads.ByName(b)
					if err != nil {
						return err
					}
					totals[totalKey(b, j.spec.Seed)] = spec.Build(workloads.Config{Scale: servedScale, Seed: j.spec.Seed}).TotalWarpInsts()
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// One job of each class is compared byte for byte with a one-shot
	// experiments.RunTargets bundle for the same spec.
	refs := map[string][]byte{}
	for _, plan := range plans {
		for _, j := range plan {
			if _, ok := refs[j.class]; ok {
				continue
			}
			data, err := oneShot(j.spec, stateDir)
			if err != nil {
				return fmt.Errorf("one-shot reference: %w", err)
			}
			refs[j.class] = data
		}
	}

	var stats []servedPassStats
	err := r.measure(func(p pass) (float64, error) {
		ps, err := servedPass(p.tr, p.root, plans, stateDir, totals)
		if err != nil {
			return 0, err
		}
		checked := map[string]bool{}
		for _, j := range ps.jobs {
			r.op(j.err)
			if j.err != nil {
				continue
			}
			if j.planned.class == classHit {
				r.check(j.final.CacheMisses == 0, "served-mix: resubmitted job %s missed %d cells", j.final.ID, j.final.CacheMisses)
			}
			if !checked[j.planned.class] {
				what := fmt.Sprintf("served-mix: the %s job's results and the one-shot bundle for its spec", j.planned.class)
				if err := sameResultFiles(r, what, refs[j.planned.class], j.data); err != nil {
					return 0, err
				}
			}
			checked[j.planned.class] = true
		}
		if !p.warm {
			stats = append(stats, ps)
		}
		return float64(ps.delivered), nil
	}, servedTenants, "server.submit", "server.queue", "server.run", "server.result")
	if err != nil {
		return err
	}
	if r.cfg.trace {
		r.servedLayers(stats)
	}
	return nil
}

func totalKey(bench string, seed uint64) string { return fmt.Sprintf("%s/%d", bench, seed) }

// startServer opens a job server on a fresh state directory behind an
// httptest listener.
func startServer(stateDir string, mc *metrics.Collector) (*server.Driver, *httptest.Server, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, nil, err
	}
	d, err := server.Open(server.Config{StateDir: stateDir, CacheMaxBytes: servedCacheBytes, Metrics: mc})
	if err != nil {
		return nil, nil, err
	}
	return d, httptest.NewServer(d.Handler()), nil
}

// stopServer shuts the listener and the driver down and removes the state.
func stopServer(d *server.Driver, srv *httptest.Server, stateDir string) error {
	srv.Close()
	err := d.Close()
	if rmErr := os.RemoveAll(stateDir); err == nil {
		err = rmErr
	}
	return err
}

// servedPass runs every tenant's job sequence against a fresh server and
// returns what the tenants and the server measured.
func servedPass(tr *tracer, root int, plans [][]plannedJob, stateDir string, totals map[string]int64) (ps servedPassStats, err error) {
	d, srv, err := startServer(stateDir, metrics.New())
	if err != nil {
		return ps, err
	}
	defer func() {
		if stopErr := stopServer(d, srv, stateDir); err == nil {
			err = stopErr
		}
	}()
	cl := client.New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), servedTimeout)
	defer cancel()

	jobs := make([][]servedJob, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, p := range plans[i] {
				jobs[i] = append(jobs[i], runServedJob(ctx, tr, root, cl, p))
			}
		}(i)
	}
	wg.Wait()
	ps.phases = map[string]float64{}
	ps.counters = d.Metrics().Counters
	ps.cacheBytes = d.CacheSizeBytes()
	for _, tj := range jobs {
		for _, j := range tj {
			ps.jobs = append(ps.jobs, j)
			if j.err != nil {
				continue
			}
			for _, b := range j.planned.spec.Benchmarks {
				ps.delivered += totals[totalKey(b, j.planned.spec.Seed)]
			}
			for _, ph := range j.final.Phases {
				ps.phases[ph.Name] += ph.Seconds
			}
			ps.queueWait = append(ps.queueWait, j.final.StartedAt.Sub(j.final.SubmittedAt).Seconds())
			ps.runDur = append(ps.runDur, j.final.FinishedAt.Sub(*j.final.StartedAt).Seconds())
		}
	}
	return ps, nil
}

// runServedJob submits one job, follows its event stream to the terminal
// status and downloads its result, as a tenant would.
func runServedJob(ctx context.Context, tr *tracer, root int, cl *client.Client, p plannedJob) servedJob {
	j := servedJob{planned: p}
	span := tr.begin("job", root)
	defer tr.end(span)
	t := timer()
	var st server.JobStatus
	tr.do("server.submit", span, func() { st, j.err = cl.Submit(ctx, p.spec) })
	j.submit = t()
	if j.err != nil {
		return j
	}
	wait := tr.begin("server.wait", span)
	j.err = cl.Events(ctx, st.ID, func(s server.JobStatus) error { j.final = s; return nil })
	tr.end(wait)
	j.latency = t()
	// The server's stamps split the wait into the job's queue wait and its
	// run; what is left of the wait is the event stream's delivery.
	if f := j.final; j.err == nil && f.StartedAt != nil && f.FinishedAt != nil {
		tr.record("server.queue", wait, f.SubmittedAt, *f.StartedAt)
		tr.record("server.run", wait, *f.StartedAt, *f.FinishedAt)
	}
	if j.err == nil && j.final.State != server.StateDone {
		j.err = fmt.Errorf("served-mix: job %s ended %s: %s", st.ID, j.final.State, j.final.Error)
	}
	if j.err != nil {
		return j
	}
	rt := timer()
	tr.do("server.result", span, func() { j.data, j.err = cl.Result(ctx, st.ID) })
	j.result = rt()
	j.measured = measuredClass(j.final)
	return j
}

// measuredClass classifies a finished job by its cache counters.
func measuredClass(st server.JobStatus) string {
	switch {
	case st.CacheMisses == 0 && st.CacheHits > 0:
		return classHit
	case st.SubcellHits > 0 && st.SubcellMisses == 0:
		return classSubcell
	}
	return classCold
}

// oneShot runs spec as cmd/experiments would and returns its results file.
func oneShot(spec server.JobSpec, dir string) ([]byte, error) {
	opts := experiments.DefaultOptions(spec.Scale)
	opts.Seed = spec.Seed
	opts.Benchmarks = spec.Benchmarks
	opts.Samplers = spec.Samplers
	bundle, err := experiments.RunTargets(opts, experiments.RunSpec{Targets: spec.Targets}, nil)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "one-shot.json")
	defer os.Remove(path)
	if err := experiments.WriteResultsFile(path, bundle); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// servedLayers sets the server, cache and sampler metrics from the passes.
func (r *run) servedLayers(stats []servedPassStats) {
	var latency, hitLatency, submit, result, queueWait, runDur []float64
	var cellRatio, subRatio, evictions, cacheMB []float64
	phase := map[string][]float64{}
	shares, runTime := map[string]float64{}, map[string]float64{}
	var jobs, totalRun, errPct, samplePct float64
	var results int
	for _, ps := range stats {
		for _, j := range ps.jobs {
			if j.err != nil {
				continue
			}
			latency = append(latency, j.latency)
			submit = append(submit, j.submit)
			result = append(result, j.result)
			if j.measured == classHit {
				hitLatency = append(hitLatency, j.latency)
			}
			shares[j.measured]++
			jobs++
			run := j.final.FinishedAt.Sub(*j.final.StartedAt).Seconds()
			runTime[j.measured] += run
			totalRun += run
			if b, err := decodeResults(j.data); err == nil {
				for _, res := range b.Accuracy {
					if o, ok := res.Outcome(sampler.NameTBPoint); ok {
						errPct += o.Err * 100
						samplePct += o.Estimate.SampleSize * 100
						results++
					}
				}
			}
		}
		queueWait = append(queueWait, ps.queueWait...)
		runDur = append(runDur, ps.runDur...)
		c := ps.counters
		cellRatio = append(cellRatio, ratioOf(c["server.cache_hits"], c["server.cache_misses"]))
		subRatio = append(subRatio, ratioOf(c["server.subcell_hits"], c["server.subcell_misses"]))
		evictions = append(evictions, float64(c["server.cache_evictions"]))
		cacheMB = append(cacheMB, float64(ps.cacheBytes)/(1<<20))
		for name, m := range map[string]string{
			"sampler.random": "sampler.random_busy_s", "sampler.simpoint": "sampler.simpoint_busy_s",
			"sampler.tbpoint": "sampler.tbpoint_busy_s", "experiments.full_ref": "gpusim.fullref_busy_s",
			"core.profile": "funcsim.profile_busy_s", "core.inter_cluster": "cluster.inter_busy_s",
		} {
			phase[m] = append(phase[m], ps.phases[name])
		}
	}
	r.setTiming("job_p50_s", latency)
	p90, beyond := percentile(latency, 90)
	r.set("job_p90_s", p90)
	r.notes["job_p90_beyond"] = beyond
	r.setTiming("hit_job_p50_s", hitLatency)
	r.setTiming("server.submit_s", submit)
	r.setTiming("server.result_s", result)
	r.setTiming("server.queue_wait_s", queueWait)
	r.setTiming("server.run_s", runDur)
	r.setTiming("server.cell_hit_ratio", cellRatio)
	r.setTiming("server.subcell_hit_ratio", subRatio)
	r.setTiming("durable.evictions", evictions)
	r.setTiming("durable.cache_mb", cacheMB)
	for m, xs := range phase {
		r.setTiming(m, xs)
	}
	for _, c := range []string{classHit, classSubcell, classCold} {
		r.set("served."+c+"_share", shares[c]/jobs)
		r.set("served."+c+"_time_share", runTime[c]/totalRun)
	}
	if results > 0 {
		r.set("tbpoint_err_pct", errPct/float64(results))
		r.set("tbpoint_sample_pct", samplePct/float64(results))
	}
	planned := map[string]int{}
	for _, j := range stats[0].jobs {
		planned[j.planned.class]++
	}
	r.notes["planned_classes"] = planned
	r.notes["jobs"] = int(jobs)
}

// decodeResults unwraps a results file's envelope and decodes the bundle.
func decodeResults(data []byte) (*experiments.Results, error) {
	_, payload, err := durable.ReadEnvelope(data)
	if err != nil {
		return nil, err
	}
	return experiments.ReadResults(bytes.NewReader(payload))
}

// sameResultFiles checks the bundles in two results files with
// sameOutputs. The files' envelopes hold a checksum of the bundle's bytes,
// so only the bundles are compared.
func sameResultFiles(r *run, what string, a, b []byte) error {
	_, pa, err := durable.ReadEnvelope(a)
	if err != nil {
		return err
	}
	_, pb, err := durable.ReadEnvelope(b)
	if err != nil {
		return err
	}
	r.sameOutputs(what, pa, pb)
	return nil
}

func ratioOf(hit, miss uint64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}
