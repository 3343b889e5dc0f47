package gpusim

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"tbpoint/internal/faultcheck"
	"tbpoint/internal/kernel"
	"tbpoint/internal/trace"
)

// parConfig returns an 8-SM configuration so worker counts up to 8 shard
// non-trivially.
func parConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSMs = 8
	return cfg
}

func runPar(t *testing.T, sim *Simulator, opts RunOptions) LaunchResult {
	t.Helper()
	l := makeLaunch(computeKernel(), 48, 8)
	return resultFingerprint(sim.RunLaunch(l, opts))
}

func TestParallelWorkersOneIsSerial(t *testing.T) {
	sim := MustNew(parConfig())
	serial := runPar(t, sim, RunOptions{FixedUnitInsts: 500, CollectBBV: true})
	one := runPar(t, sim, RunOptions{FixedUnitInsts: 500, CollectBBV: true, Workers: 1})
	if !fingerprintsEqual(serial, one) {
		t.Fatal("Workers=1 differs from the serial event loop")
	}
}

func TestParallelDeterministicRepeat(t *testing.T) {
	sim := MustNew(parConfig())
	opts := RunOptions{FixedUnitInsts: 500, CollectBBV: true, Workers: 4, Quantum: 256}
	a := runPar(t, sim, opts)
	b := runPar(t, sim, opts)
	if !fingerprintsEqual(a, b) {
		t.Fatal("identical (seed, workers, quantum) produced different results")
	}
	if len(a.FixedUnits) == 0 {
		t.Fatal("parallel run closed no fixed units")
	}
	for i := range a.FixedUnits {
		if !reflect.DeepEqual(a.FixedUnits[i].BBV, b.FixedUnits[i].BBV) {
			t.Fatalf("fixed unit %d BBV differs between identical runs", i)
		}
	}
}

func TestParallelWorkerCountInvariant(t *testing.T) {
	// The determinism contract is stronger than repeatability: for a fixed
	// quantum, results are independent of the worker count (including
	// counts above NumSMs, which clamp).
	sim := MustNew(parConfig())
	base := runPar(t, sim, RunOptions{FixedUnitInsts: 500, CollectBBV: true, Workers: 2, Quantum: 256})
	for _, w := range []int{3, 5, 8, 64} {
		got := runPar(t, sim, RunOptions{FixedUnitInsts: 500, CollectBBV: true, Workers: w, Quantum: 256})
		if !fingerprintsEqual(base, got) {
			t.Fatalf("workers=%d diverged from workers=2 at the same quantum", w)
		}
	}
}

func TestParallelMatchesSerialWork(t *testing.T) {
	// Parallel mode may move events in time (bounded by the quantum) but
	// must simulate exactly the same work — every thread block, every warp
	// instruction — and its cycle count must stay in the serial ballpark.
	kernels := map[string]*kernel.Kernel{
		"compute": computeKernel(),
		"memory":  memoryKernel(),
		"barrier": barrierKernel(),
	}
	for name, k := range kernels {
		t.Run(name, func(t *testing.T) {
			sim := MustNew(parConfig())
			l := makeLaunch(k, 48, 8)
			serial := sim.RunLaunch(l, RunOptions{})
			par := sim.RunLaunch(l, RunOptions{Workers: 4, Quantum: 256})
			if par.SimulatedTBs != serial.SimulatedTBs {
				t.Fatalf("parallel simulated %d TBs, serial %d", par.SimulatedTBs, serial.SimulatedTBs)
			}
			if par.SimulatedWarpInsts != serial.SimulatedWarpInsts {
				t.Fatalf("parallel issued %d warp insts, serial %d",
					par.SimulatedWarpInsts, serial.SimulatedWarpInsts)
			}
			div := relDivergence(serial.Cycles, par.Cycles)
			if div > 0.30 {
				t.Fatalf("cycle divergence %.3f (serial %d, parallel %d) above bound",
					div, serial.Cycles, par.Cycles)
			}
		})
	}
}

func relDivergence(serial, par int64) float64 {
	if serial == 0 {
		return 0
	}
	d := float64(par-serial) / float64(serial)
	if d < 0 {
		return -d
	}
	return d
}

func TestParallelCancelMidEpochChaos(t *testing.T) {
	// A deterministic fault (faultcheck error at the Nth retirement hook)
	// triggers cancellation mid-run. The abort must be observed at an
	// epoch barrier, return a consistent partial result, and leave no
	// worker deadlocked — proven by immediately reusing the simulator
	// (same arena) for clean serial and parallel runs.
	sim := MustNew(parConfig())
	l := makeLaunch(computeKernel(), 48, 8)
	ref := resultFingerprint(sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500, Workers: 4}))

	inj := faultcheck.OnNth(5, faultcheck.Error)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	retired := 0
	hooks := &Hooks{OnTBRetire: func(tb, sm int, cycle int64) {
		retired++
		if inj.Fire() != nil {
			cancel()
		}
	}}
	res := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500, Workers: 4, Ctx: ctx, Hooks: hooks})
	if !res.Aborted {
		t.Fatal("cancelled parallel run not flagged aborted")
	}
	if res.SimulatedTBs >= l.NumBlocks() {
		t.Fatal("aborted run simulated every thread block")
	}
	if res.SimulatedTBs != retired {
		t.Fatalf("aborted result reports %d TBs, hooks saw %d", res.SimulatedTBs, retired)
	}

	// The pool shut down cleanly and the arena is reusable: a fresh
	// parallel run on the same simulator reproduces the reference.
	again := resultFingerprint(sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500, Workers: 4}))
	if !fingerprintsEqual(ref, again) {
		t.Fatal("arena reuse after an aborted parallel run changed results")
	}
}

func TestParallelHookPanicShutsPoolDown(t *testing.T) {
	// A panic out of a barrier-side hook unwinds RunLaunch; the deferred
	// pool shutdown must still run so no worker goroutine leaks, and the
	// simulator must remain usable.
	sim := MustNew(parConfig())
	l := makeLaunch(computeKernel(), 48, 8)
	inj := faultcheck.OnNth(3, faultcheck.Panic)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("hook panic did not propagate")
			}
		}()
		sim.RunLaunch(l, RunOptions{Workers: 4, Hooks: &Hooks{
			OnTBRetire: func(tb, sm int, cycle int64) { _ = inj.Fire() },
		}})
	}()
	res := sim.RunLaunch(l, RunOptions{Workers: 4})
	if res.SimulatedTBs != l.NumBlocks() {
		t.Fatalf("post-panic run simulated %d of %d TBs", res.SimulatedTBs, l.NumBlocks())
	}
}

func TestParallelSmallQuantumBarrierHammer(t *testing.T) {
	// Tiny quanta maximize barrier crossings and deferred-request churn;
	// under -race this hammers the epoch handoff. Results must still be
	// worker-count invariant and simulate exactly the serial work.
	sim := MustNew(parConfig())
	l := makeLaunch(memoryKernel(), 32, 24)
	serial := sim.RunLaunch(l, RunOptions{})
	for _, q := range []int64{1, 3, 17} {
		var base LaunchResult
		for i, w := range []int{2, 8} {
			got := resultFingerprint(sim.RunLaunch(l, RunOptions{Workers: w, Quantum: q}))
			if got.SimulatedWarpInsts != serial.SimulatedWarpInsts || got.SimulatedTBs != serial.SimulatedTBs {
				t.Fatalf("q=%d w=%d simulated %d insts/%d TBs, serial %d/%d",
					q, w, got.SimulatedWarpInsts, got.SimulatedTBs,
					serial.SimulatedWarpInsts, serial.SimulatedTBs)
			}
			if i == 0 {
				base = got
			} else if !fingerprintsEqual(base, got) {
				t.Fatalf("q=%d: workers=%d diverged from workers=2", q, w)
			}
		}
	}
}

// referenceReqOrder is the barrier's request order written as a plain
// comparator sort: (arrive, sm, idx) ascending.
func referenceReqOrder(p *parState) []parReqRef {
	var refs []parReqRef
	for smi := range p.sms {
		for ri, r := range p.sms[smi].reqs {
			refs = append(refs, parReqRef{arrive: r.arrive, sm: int32(smi), idx: int32(ri)})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if a.arrive != b.arrive {
			return a.arrive < b.arrive
		}
		if a.sm != b.sm {
			return a.sm < b.sm
		}
		return a.idx < b.idx
	})
	return refs
}

func TestParallelBarrierOrderMatchesComparatorSort(t *testing.T) {
	// Random per-SM request lists shaped like an epoch's: each memory
	// instruction issues at a cycle in [start, start+quantum) and its
	// divergent requests arrive up to MaxRequests-1 cycles later, so the
	// last ones land past the epoch end. Lists are not sorted within an
	// SM, which is stricter than what the epoch loop produces.
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name         string
		nsm, maxInst int
		quantum      int64
	}{
		{"empty", 8, 0, DefaultQuantum},
		{"one-sm", 1, 40, DefaultQuantum},
		{"quantum-1", 8, 3, 1},
		{"default", 8, 60, DefaultQuantum},
		{"sparse-sms", 16, 2, 17},
		{"wide-span", 4, 20, parCountSortMaxSpan + 1000},
	}
	p := &parState{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 50; round++ {
				start := rng.Int63n(1 << 40)
				p.sms = make([]parSM, tc.nsm)
				for smi := range p.sms {
					insts := 0
					if tc.maxInst > 0 {
						insts = rng.Intn(tc.maxInst + 1)
					}
					for k := 0; k < insts; k++ {
						cycle := start + rng.Int63n(tc.quantum)
						nreq := 1 + rng.Intn(trace.MaxRequests)
						for i := 0; i < nreq; i++ {
							p.sms[smi].reqs = append(p.sms[smi].reqs, parReq{arrive: cycle + int64(i)})
						}
					}
				}
				want := referenceReqOrder(p)
				got := p.sortReqRefs()
				if len(got) != len(want) {
					t.Fatalf("round %d: %d refs, want %d", round, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("round %d: ref %d = %+v, want %+v", round, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// poolGoroutines runs f, checks that the parallel engine had wantHelpers
// pool goroutines beside the caller while the launch ran (sampled from a
// barrier-side hook), and that none of them outlived RunLaunch.
func poolGoroutines(t *testing.T, wantHelpers int, f func(hooks *Hooks)) {
	t.Helper()
	before := runtime.NumGoroutine()
	during := -1
	f(&Hooks{OnTBRetire: func(tb, sm int, cycle int64) {
		if during < 0 {
			during = runtime.NumGoroutine()
		}
	}})
	if during-before != wantHelpers {
		t.Errorf("%d goroutines beside the caller during the run, want %d", during-before, wantHelpers)
	}
	// A helper that has signalled its exit may still be unwinding; allow
	// it a moment, but a leaked helper polls forever and fails here.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines outlived RunLaunch", n-before)
	}
}

func TestParallelPoolInvariantUnderGOMAXPROCS(t *testing.T) {
	// The pool caps its goroutines at GOMAXPROCS; shard count and results
	// must not depend on it. At GOMAXPROCS 1 every shard runs inline.
	sim := MustNew(parConfig())
	opts := RunOptions{FixedUnitInsts: 500, CollectBBV: true, Quantum: 256}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	opts.Workers = 2
	base := runPar(t, sim, opts)
	runtime.GOMAXPROCS(1)
	for _, w := range []int{2, 4, 8} {
		opts.Workers = w
		if got := runPar(t, sim, opts); !fingerprintsEqual(base, got) {
			t.Fatalf("workers=%d at GOMAXPROCS 1 diverged from workers=2 at GOMAXPROCS 2", w)
		}
	}
}

func TestParallelPoolGoroutinesDoNotOutliveRun(t *testing.T) {
	sim := MustNew(parConfig())
	l := makeLaunch(computeKernel(), 48, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ workers, helpers int }{{8, 3}, {4, 3}, {2, 1}} {
		poolGoroutines(t, tc.helpers, func(hooks *Hooks) {
			sim.RunLaunch(l, RunOptions{Workers: tc.workers, Hooks: hooks})
		})
	}
	runtime.GOMAXPROCS(1)
	poolGoroutines(t, 0, func(hooks *Hooks) {
		sim.RunLaunch(l, RunOptions{Workers: 8, Hooks: hooks})
	})

	// A panic out of a barrier-side hook unwinds RunLaunch; the pool must
	// still be shut down.
	runtime.GOMAXPROCS(4)
	poolGoroutines(t, 3, func(hooks *Hooks) {
		defer func() {
			if recover() == nil {
				t.Error("hook panic did not propagate")
			}
		}()
		count := hooks.OnTBRetire
		inj := faultcheck.OnNth(3, faultcheck.Panic)
		sim.RunLaunch(l, RunOptions{Workers: 4, Hooks: &Hooks{OnTBRetire: func(tb, sm int, cycle int64) {
			count(tb, sm, cycle)
			_ = inj.Fire()
		}}})
	})
}

func TestParallelParkerNeverMissesAWake(t *testing.T) {
	// Two goroutines take turns through a pair of parkers, as the pool's
	// caller and helper do. A waker publishes its turn before wakeUp, and
	// the waiter must see it whether it is still polling or has parked.
	// Sleeps push waiters past parSpins into the park path, and sleeps
	// between publishing and wakeUp deliver wakes late, to a waiter that
	// already moved on to its next turn: it must not return early.
	var turn atomic.Int64
	var stopped atomic.Bool
	var w [2]parParker
	for i := range w {
		w[i].wake = make(chan struct{}, 1)
	}
	const turns = 800
	play := func(me int64, self, other *parParker) {
		for r := me; r < turns; r += 2 {
			self.await(func() bool { return turn.Load() == r || stopped.Load() })
			if stopped.Load() {
				return
			}
			if got := turn.Load(); got != r {
				t.Errorf("woken at turn %d, waiting for %d", got, r)
				stopped.Store(true)
				other.wakeUp()
				return
			}
			if r%8 < 2 || r%8 == 6 {
				time.Sleep(time.Millisecond)
			}
			turn.Store(r + 1)
			if r%8 == 4 {
				time.Sleep(time.Millisecond)
			}
			other.wakeUp()
		}
	}
	done := make(chan struct{}, 2)
	go func() { play(0, &w[0], &w[1]); done <- struct{}{} }()
	go func() { play(1, &w[1], &w[0]); done <- struct{}{} }()
	for range 2 {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("hand-off stalled at turn %d: a wake was missed", turn.Load())
		}
	}
}

func TestParallelPoolParksThroughSlowBarriers(t *testing.T) {
	// A slow barrier-side hook keeps helpers waiting past parSpins, so
	// they park between epochs; results must not change and the parked
	// helpers must still be shut down.
	sim := MustNew(parConfig())
	l := makeLaunch(computeKernel(), 48, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	want := resultFingerprint(sim.RunLaunch(l, RunOptions{Workers: 4}))
	poolGoroutines(t, 3, func(hooks *Hooks) {
		count := hooks.OnTBRetire
		got := resultFingerprint(sim.RunLaunch(l, RunOptions{Workers: 4, Hooks: &Hooks{OnTBRetire: func(tb, sm int, cycle int64) {
			count(tb, sm, cycle)
			time.Sleep(time.Millisecond)
		}}}))
		if !fingerprintsEqual(want, got) {
			t.Error("a run with parked helpers diverged from one without")
		}
	})
}
