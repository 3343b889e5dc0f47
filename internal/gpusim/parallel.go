// Epoch-synchronized parallel event loop (RunOptions.Workers > 1).
//
// The serial loop in sim.go interleaves all SMs cycle by cycle on one
// goroutine. This file trades a bounded amount of cross-SM timing accuracy
// for wall-clock speed, following the epoch model of "Parallelizing a
// modern GPU simulator" (arXiv 2502.14691): SMs are partitioned into
// contiguous shards, one per worker, and every SM advances independently
// through a time quantum of Q cycles. Shards meet at a barrier at the end
// of each epoch, where a single goroutine does only the work that needs
// one global order: it services all deferred memory traffic against the
// shared L2/DRAM in (arrive, sm, idx) order, wakes the waiting warps,
// retires thread blocks and dispatches replacements in (cycle, sm) order,
// closes sampling units, and polls cancellation. Writing the serviced
// fills into the per-SM MSHR tables needs no global order, so each shard
// does it for its own SMs at the start of the next epoch (parShard.settle).
//
// Shards are run by at most min(Workers, GOMAXPROCS) goroutines, the
// caller included, each owning a contiguous block of shards (see parPool).
//
// Ownership rules (what makes the data-race-free part trivial):
//
//   - Worker-owned during an epoch: the shard's smStates, the tbStates
//     resident on those SMs, the warp streams, the per-SM L1 caches and
//     MSHR tables, and the per-SM deferred-request records (parSM). The
//     shard writes an SM's MSHR table at epoch start, settling the fills
//     the previous barrier computed, before it steps the SM.
//   - Barrier-owned (touched only between epochs, single-threaded): the
//     L2, DRAM, dispatch cursor (nextTB/free/lastDispatch), liveTBs,
//     hooks, sampling-unit state, the LaunchResult, and the metrics
//     collector.
//   - Per-shard scratch (merged at the barrier, or for the MSHR settle
//     after the run, as order-independent sums): runCounters,
//     issued-instruction, merge and prune counts, BBV accumulators, the
//     MSHR occupancy observations, and the address buffer.
//
// Determinism contract: for a fixed quantum the simulation is a pure
// function of the launch — independent of the worker count and of
// GOMAXPROCS — because (a) an SM's intra-epoch execution depends only on
// its own state, (b) the barrier services deferred requests in a globally
// sorted (arrive, sm, idx) order, and (c) retirement/dispatch processing
// is sorted by (cycle, sm). Worker count only changes which goroutine
// computes what.
//
// Accuracy: memory requests that miss the L1 are deferred to the epoch
// barrier, so a warp whose miss would have returned mid-epoch instead
// wakes at the start of the next epoch — cross-SM memory timing is
// quantized to epochs and per-access divergence is bounded by the
// quantum. Fixed-size sampling units close at barriers rather than on the
// exact instruction, and same-line accesses within one epoch resolve as
// MSHR merges even when a serial run would have completed the first fill
// in between. Serial mode (Workers <= 1) is bit-identical to builds
// without this file.
package gpusim

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"tbpoint/internal/isa"
	"tbpoint/internal/metrics"
	"tbpoint/internal/trace"
)

// DefaultQuantum is the epoch length (cycles) used when RunOptions.Quantum
// is unset. It is roughly two L1-miss round trips (L1+L2 hit latency is
// ~118 cycles under the default config): long enough to amortize the
// barrier, short enough that deferring misses to the barrier moves wakes
// by less than one round trip on average. Measured on eventloop-black,
// quantum 256 keeps total-cycle divergence under 1% where 512 already
// costs ~15%, at equal wall-clock speed.
const DefaultQuantum = 256

// parSentinel marks an MSHR entry whose fill is deferred to the current
// epoch's barrier; the value encodes parSentinel + the index of the
// deferred request in the owning SM's parSM.reqs. Real completion cycles
// are always far below it, so the issue path distinguishes "outstanding,
// completion unknown" from "outstanding, completion known" with one
// compare. The barrier computes every sentinel's completion cycle, and the
// owning shard's settle writes it over the sentinel before the SM issues
// again, so no sentinel is ever read in a later epoch.
const parSentinel = int64(1) << 60

// parReq is one L1 miss deferred to the epoch barrier.
type parReq struct {
	arrive  int64  // request arrival cycle (issue cycle + divergence offset)
	done    int64  // completion cycle, filled in at the barrier
	addr    uint64 // request address
	wb      uint64 // dirty line evicted by the L1 fill (0 = none)
	pend    int32  // index into the owning SM's parSM.pends
	isStore bool
}

// parWaiter records a same-epoch access to a line with a deferred fill in
// flight: it resolves as an MSHR merge when the fill's completion becomes
// known at the barrier. Both indices are into the owning SM's parSM.
type parWaiter struct{ req, pend int32 }

// parPending is a memory instruction waiting on at least one deferred
// request; its warp wakes at the barrier once every request has resolved.
type parPending struct {
	ref       warpRef
	done      int64 // max known completion across the instruction's requests
	remaining int32 // unresolved deferred requests/waiters
}

// parRetire is a thread block that finished during an epoch; global
// retirement (hooks, unit close, redispatch) is deferred to the barrier.
type parRetire struct {
	cycle int64 // retire cycle (finish cycle + 1, as in retireTB)
	slot  int32
	sm    int32
	tbID  int
}

// parSM is the per-SM epoch-local record set. It is written only by the
// owning shard's worker during an epoch and only by the barrier goroutine
// between epochs. Keeping these per SM (not per shard) is what makes the
// barrier's processing order — ascending SM id, creation order within an
// SM — independent of how SMs are sharded across workers.
type parSM struct {
	reqs    []parReq
	order   []int32 // reqs indices in the barrier's service order, for settle
	waiters []parWaiter
	pends   []parPending
	retires []parRetire
	wheel   parWheel
}

func (p *parSM) reset() {
	p.reqs = p.reqs[:0]
	p.order = p.order[:0]
	p.waiters = p.waiters[:0]
	p.pends = p.pends[:0]
	p.retires = p.retires[:0]
	p.wheel.reset()
}

// parWheelSize is the span (cycles) of the per-SM warp-wake timing wheel
// used by the parallel event loop. Warp wakes are overwhelmingly short
// (pipeline latencies); the few that land further out (heavily queued DRAM
// completions delivered at a barrier) overflow to a binary heap. Must be a
// power of two. The value only moves work between the wheel and the
// overflow heap and never affects simulation results.
const (
	parWheelSize = 1024
	parWheelMask = parWheelSize - 1
)

// parWheel is the parallel engine's replacement for smState.wakes: a
// cycle-indexed ring of warp lists with O(1) push and pop. The serial loop
// cannot use it because goldens pin the serial heap's equal-cycle pop
// order; the parallel mode defines its own deterministic order — FIFO
// within a bucket — which is worker-count invariant because each wheel is
// owned by exactly one SM and fed in that SM's deterministic issue order
// (plus the barrier's deterministic wake order between epochs).
//
// Invariant: every bucketed entry's wake cycle lies in (pos, pos +
// parWheelSize), so a bucket index maps to exactly one cycle and entries
// need not carry their cycle. Pushes further out than the span go to the
// overflow heap, which pops directly when due.
//
// pos is the window anchor and is moved ONLY at the epoch bounds — the
// epoch start, as the SM begins stepping, and the epoch end at the barrier
// — never by drainTo. That keeps the wheel-vs-overflow decision (and the
// barrier's wake-vs-ready decision) a function of the epoch bounds alone,
// not of where an SM's stepping loop happened to stop. The invariant holds
// at both anchors: intra-epoch pushes land in (start, start + span), every
// entry still bucketed when an epoch ends is >= end (the SM drained
// everything earlier), and barrier pushes land in (end, end + span).
type parWheel struct {
	buckets  [][]warpRef // parWheelSize rings, allocated on first push
	sum      [parWheelSize / 64]uint64
	pos      int64 // window anchor: epoch start, or epoch end during a barrier
	next     int64 // exact min bucketed wake cycle, 0 = wheel empty
	count    int   // bucketed entries
	overflow wakeHeap
}

func (pw *parWheel) reset() {
	if pw.count > 0 {
		for w, bits64 := range pw.sum {
			for bits64 != 0 {
				b := bits64 & (-bits64)
				bits64 &^= b
				slot := w<<6 + bits.TrailingZeros64(b)
				pw.buckets[slot] = pw.buckets[slot][:0]
			}
			pw.sum[w] = 0
		}
	}
	pw.pos = 0
	pw.next = 0
	pw.count = 0
	pw.overflow = pw.overflow[:0]
}

// push records that ref wakes at cycle at, which must be > pw.pos.
func (pw *parWheel) push(ref warpRef, at int64) {
	if at-pw.pos < parWheelSize {
		if pw.buckets == nil {
			pw.buckets = make([][]warpRef, parWheelSize)
		}
		slot := at & parWheelMask
		pw.buckets[slot] = append(pw.buckets[slot], ref)
		pw.sum[slot>>6] |= 1 << (uint(slot) & 63)
		pw.count++
		if pw.next == 0 || at < pw.next {
			pw.next = at
		}
		return
	}
	pw.overflow.push(wakeEntry{cycle: at, ref: ref})
}

// peekNext returns the earliest recorded wake cycle, or 0 when empty.
func (pw *parWheel) peekNext() int64 {
	next := pw.next
	if c, ok := pw.overflow.peek(); ok && (next == 0 || c < next) {
		next = c
	}
	return next
}

// drainTo pushes every entry due by cycle onto sm's ready queue — bucketed
// entries first (ascending cycle, FIFO within a cycle), then overflow —
// and advances the drain high-water mark. A call with nothing due is two
// compares.
func (pw *parWheel) drainTo(sm *smState, cycle int64) {
	for pw.next != 0 && pw.next <= cycle {
		slot := pw.next & parWheelMask
		b := pw.buckets[slot]
		for _, ref := range b {
			sm.pushReady(ref)
		}
		pw.count -= len(b)
		pw.buckets[slot] = b[:0]
		pw.sum[slot>>6] &^= 1 << (uint(slot) & 63)
		if pw.count == 0 {
			pw.next = 0
		} else {
			pw.next = pw.scanFrom(pw.next + 1)
		}
	}
	for {
		ref, ok := pw.overflow.popDue(cycle)
		if !ok {
			return
		}
		sm.pushReady(ref)
	}
}

// scanFrom returns the cycle of the first non-empty bucket at or after
// cycle from. The caller guarantees the wheel is non-empty, so by the span
// invariant the answer lies in [from, from+parWheelSize).
func (pw *parWheel) scanFrom(from int64) int64 {
	nw := len(pw.sum)
	startSlot := int(from) & parWheelMask
	wi := startSlot >> 6
	w := pw.sum[wi] &^ (1<<(uint(startSlot)&63) - 1)
	for k := 0; k <= nw; k++ {
		if w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			d := int64(s - startSlot)
			if d < 0 {
				d += parWheelSize
			}
			return from + d
		}
		wi++
		if wi == nw {
			wi = 0
		}
		w = pw.sum[wi]
	}
	panic("gpusim: parallel wake wheel lost an entry")
}

// parShard is one worker's contiguous slice of the SMs plus its private
// scratch. The pool hands whole shards to goroutines (see parPool).
type parShard struct {
	rs     *runState
	lo, hi int // SM id range [lo, hi)

	issued int64       // warp instructions issued this epoch
	merges int64       // MSHR merges observed this epoch
	bbv    []int64     // epoch-local BBV accumulator
	mct    runCounters // epoch-local metrics scratch

	// MSHR settle scratch, folded into the run after its last settle.
	prunes  int64              // pruneCompleted calls
	mshrObs *metrics.Collector // DistMSHROccupancy samples; nil when uninstrumented

	panicV     any // recovered panic, re-raised by the barrier goroutine
	panicStack []byte

	addrs [trace.MaxRequests]uint64

	// pad keeps concurrently-written shards off each other's cache lines.
	_ [48]byte
}

// parReqRef addresses one deferred request for the barrier's global sort.
type parReqRef struct {
	arrive  int64
	sm, idx int32
}

// parCountSortMaxSpan bounds the arrive-cycle span the barrier sorts by
// counting. Arrivals lie within one quantum plus trace.MaxRequests of the
// epoch start, so only quanta far above DefaultQuantum exceed it and fall
// back to a comparison sort (same order, O(n log n)). The CLIs and the
// server accept any quantum, so the fallback bounds the buckets' memory;
// no benchmark workload reaches it.
const parCountSortMaxSpan = 1 << 16

// parState is the recycled state of the parallel engine (runState.par).
type parState struct {
	shards  []parShard
	sms     []parSM
	reqRefs []parReqRef
	counts  []int32 // counting-sort buckets, one per arrive cycle
	retires []parRetire
	// maxRetire tracks the last retirement cycle; it becomes the launch's
	// Cycles (the serial loop's exit cycle is likewise the final retire
	// cycle).
	maxRetire int64
}

// parPool runs each epoch's shards on up to GOMAXPROCS goroutines: the
// caller plus helpers, each owning a contiguous block of shards (blocks
// that interleave share cache lines at their edges). An epoch is tens of
// microseconds of work, about what a channel send, futex wake and
// WaitGroup join cost, so a waiting goroutine polls first (parParker): the
// caller publishes an epoch by bumping seq, and every helper that sees the
// new value runs its block and decrements pending. A goroutine polls
// without yielding only while the process's simulation goroutines fit in
// its CPUs, then yields between polls, and parks once that too stays in
// vain, so launches running side by side do not keep idle helpers
// spinning through each other's epochs. The atomics order the epoch
// bounds before the helpers' reads and the helpers' shard writes before
// the caller's barrier.
type parPool struct {
	seq     atomic.Int64 // epoch sequence number; parPoolStop shuts helpers down
	pending atomic.Int32 // helpers still running the current epoch
	epoch   struct{ start, end int64 }
	blocks  [][]parShard // blocks[0] runs on the caller
	helpers []parParker  // helpers[i] runs blocks[i+1]
	caller  parParker
	exited  sync.WaitGroup
}

const parPoolStop = -1

// simRunning counts the goroutines that are running simulations: every
// RunLaunchProvider caller, serial or parallel, plus each pool helper. A
// pool goroutine leaves the count while it is parked. Pool goroutines
// compare it with the CPUs they may use to decide whether they may poll
// without yielding. It is process-wide, not per Simulator, because
// launches on different Simulators compete for the same CPUs.
var simRunning atomic.Int64

// parPolls is how many times a pool goroutine polls without yielding
// before it starts to yield: about 5 µs, less than a typical barrier's
// tail, so a pool that has the host to itself rarely reaches the
// scheduler. Polling without yielding steals a core from any other
// runnable simulation, so it happens only while simRunning fits in
// min(GOMAXPROCS, NumCPU); launches running side by side on a full host
// skip it.
const parPolls = 4096

// parSpins is how many times a pool goroutine polls, yielding between
// polls, before it parks. It covers a typical barrier, so a pool that has
// the host to itself seldom parks.
const parSpins = 1000

// parParker parks one pool goroutine until another wakes it.
type parParker struct {
	parked atomic.Bool
	wake   chan struct{}
	procs  int64 // CPUs for simulation goroutines; 0 never polls without yielding
}

// await returns once ready reports true. It polls up to parPolls times
// without yielding while simRunning is at most procs, then up to parSpins
// times yielding between polls, then parks. A waker makes ready true
// before it calls wakeUp, so either the re-check after parked is set sees
// it or wakeUp sees parked. A wake can arrive late, after its waiter has
// moved on to a later condition, so a woken waiter checks ready again.
func (w *parParker) await(ready func() bool) {
	for polls := 0; polls < parPolls && simRunning.Load() <= w.procs; polls++ {
		if ready() {
			return
		}
	}
	for spins := 0; !ready(); spins++ {
		if spins < parSpins {
			runtime.Gosched()
			continue
		}
		w.parked.Store(true)
		if ready() && w.parked.CompareAndSwap(true, false) {
			return
		}
		simRunning.Add(-1)
		<-w.wake
		simRunning.Add(1)
	}
}

// wakeUp releases w if it is parked.
func (w *parParker) wakeUp() {
	if w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// startPool splits shards into min(len(shards), GOMAXPROCS) contiguous
// blocks and starts one helper goroutine per block after the first.
func startPool(shards []parShard) *parPool {
	procs := runtime.GOMAXPROCS(0)
	g := min(len(shards), procs)
	// Polling without yielding needs a CPU per simulation goroutine, and
	// GOMAXPROCS may exceed the CPUs the process can run on.
	cpus := int64(min(procs, runtime.NumCPU()))
	pp := &parPool{
		blocks:  make([][]parShard, g),
		helpers: make([]parParker, g-1),
		caller:  parParker{wake: make(chan struct{}, 1), procs: cpus},
	}
	for i := range pp.blocks {
		pp.blocks[i] = shards[i*len(shards)/g : (i+1)*len(shards)/g]
	}
	pp.exited.Add(g - 1)
	simRunning.Add(int64(g - 1))
	for i := range pp.helpers {
		pp.helpers[i] = parParker{wake: make(chan struct{}, 1), procs: cpus}
		go pp.help(i)
	}
	return pp
}

func (pp *parPool) help(i int) {
	defer pp.exited.Done()
	defer simRunning.Add(-1)
	w, blk := &pp.helpers[i], pp.blocks[i+1]
	seen := int64(0)
	for {
		w.await(func() bool { return pp.seq.Load() != seen })
		s := pp.seq.Load()
		if s == parPoolStop {
			return
		}
		seen = s
		runBlock(blk, pp.epoch.start, pp.epoch.end)
		if pp.pending.Add(-1) == 0 {
			pp.caller.wakeUp()
		}
	}
}

// runEpoch simulates [start, end) on every shard and returns once all of
// them have finished.
func (pp *parPool) runEpoch(start, end int64) {
	pp.epoch.start, pp.epoch.end = start, end
	pp.pending.Store(int32(len(pp.helpers)))
	pp.seq.Add(1)
	pp.wakeHelpers()
	runBlock(pp.blocks[0], start, end)
	pp.caller.await(func() bool { return pp.pending.Load() == 0 })
}

// stop shuts the helpers down and waits until they have exited.
func (pp *parPool) stop() {
	pp.seq.Store(parPoolStop)
	pp.wakeHelpers()
	pp.exited.Wait()
}

func (pp *parPool) wakeHelpers() {
	for i := range pp.helpers {
		pp.helpers[i].wakeUp()
	}
}

func runBlock(blk []parShard, start, end int64) {
	for i := range blk {
		blk[i].runEpoch(start, end)
	}
}

// runParallel is the epoch-synchronized counterpart of run(). The caller
// guarantees opts.Workers > 1 and NumSMs > 1.
func (rs *runState) runParallel() {
	nsm := len(rs.sms)
	workers := rs.opts.Workers
	if workers > nsm {
		workers = nsm
	}
	quantum := rs.opts.Quantum
	if quantum < 1 {
		quantum = DefaultQuantum
	}

	p := rs.par
	if p == nil {
		p = &parState{}
		rs.par = p
	}
	if cap(p.sms) < nsm {
		p.sms = make([]parSM, nsm)
	}
	p.sms = p.sms[:nsm]
	for i := range p.sms {
		p.sms[i].reset()
	}
	if cap(p.shards) < workers {
		p.shards = make([]parShard, workers)
	}
	p.shards = p.shards[:workers]
	for i := range p.shards {
		sh := &p.shards[i]
		sh.rs = rs
		sh.lo = i * nsm / workers
		sh.hi = (i + 1) * nsm / workers
		sh.issued, sh.merges = 0, 0
		sh.mct = runCounters{}
		sh.bbv = sh.bbv[:0]
		sh.prunes, sh.mshrObs = 0, nil
		if rs.mc != nil {
			sh.mshrObs = metrics.New()
		}
		sh.panicV, sh.panicStack = nil, nil
	}
	p.maxRetire = 0
	rs.parRun = true

	rs.checkAbort()
	if !rs.aborted {
		// Initial greedy fill, exactly as the serial loop does it.
		for round := 0; round < rs.occ; round++ {
			for i := range rs.sms {
				if sm := &rs.sms[i]; sm.resident < rs.occ {
					rs.dispatchOne(sm)
				}
			}
		}
	}

	// A worker panic is captured per shard and re-raised deterministically
	// (lowest shard first) after the epoch joins; the deferred stop shuts
	// the pool down on every exit path — the chaos tests rely on this.
	pool := startPool(p.shards)
	defer pool.stop()

	start := int64(0)
	for rs.liveTBs > 0 && !rs.aborted {
		end := start + quantum
		pool.runEpoch(start, end)
		for i := range p.shards {
			if v := p.shards[i].panicV; v != nil {
				panic(fmt.Sprintf("gpusim: parallel shard %d panicked: %v\n%s",
					i, v, p.shards[i].panicStack))
			}
		}
		rs.mct.epochs++
		rs.cycle = end
		rs.barrier(end)

		// Next epoch starts at the barrier cycle, or jumps forward when
		// every SM is idle beyond it (the serial loop's time jump).
		start = end
		if rs.liveTBs > 0 && !rs.aborted {
			next := int64(-1)
			idle := true
			for i := range rs.sms {
				if rs.sms[i].hasReady() {
					idle = false
					break
				}
				if c := p.sms[i].wheel.peekNext(); c != 0 && (next == -1 || c < next) {
					next = c
				}
			}
			if idle {
				if next == -1 {
					panic(fmt.Sprintf("gpusim: parallel deadlock with %d live thread blocks at cycle %d",
						rs.liveTBs, rs.cycle))
				}
				if next > end {
					rs.mct.timeJumps++
					rs.mct.jumpedCycles += next - end
					start = next
				}
			}
		}
	}

	// The last barrier's fills are still unsettled; settle them so the
	// MSHR counters cover every request, then fold the settle scratch.
	for i := range p.shards {
		sh := &p.shards[i]
		for smi := sh.lo; smi < sh.hi; smi++ {
			sh.settle(smi)
		}
		rs.mem.prunes += sh.prunes
		rs.mc.Merge(sh.mshrObs)
	}
	if !rs.aborted && p.maxRetire > 0 {
		rs.cycle = p.maxRetire
	}
	rs.finishRun()
}

// runEpoch advances the shard's SMs through [start, end), one SM at a
// time. Inside an epoch SMs share no state — misses, retirements, dispatch
// and sampling units all wait for the barrier — so stepping each SM on its
// own gives exactly the cycle-interleaved result.
func (sh *parShard) runEpoch(start, end int64) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicV = r
			sh.panicStack = debug.Stack()
		}
	}()
	for i := sh.lo; i < sh.hi; i++ {
		sh.settle(i)
		sh.stepSM(&sh.rs.sms[i], &sh.rs.par.sms[i].wheel, start, end)
	}
}

// settle writes the fill completions the last barrier computed for SM
// smi's deferred requests into its MSHR table, over their sentinels, and
// clears the requests. It walks them in the barrier's service order and
// observes, puts and prunes exactly as memSystem.access does, so the
// table, the prune count and the occupancy samples are those of servicing
// the requests one by one at the barrier. Each table belongs to one SM, so
// only that SM's part of the global order matters.
func (sh *parShard) settle(smi int) {
	psm := &sh.rs.par.sms[smi]
	m := sh.rs.mem
	t := &m.mshrs[smi]
	l1 := &m.l1[smi]
	for _, ri := range psm.order {
		req := &psm.reqs[ri]
		if sh.mshrObs != nil {
			sh.mshrObs.Observe(metrics.DistMSHROccupancy, uint64(t.n))
		}
		var line uint64
		if l1.lineShift >= 0 {
			line = req.addr >> l1.lineShift
		} else {
			line = req.addr / l1.lineB
		}
		t.put(line, req.done)
		if t.n > m.prune {
			sh.prunes++
			t.pruneCompleted(req.arrive)
		}
	}
	psm.order = psm.order[:0]
	psm.reqs = psm.reqs[:0]
}

// stepSM runs one SM through [start, end): at each cycle it drains the
// SM's due wakes and issues one ready warp, then advances one cycle while
// warps stay ready, or jumps to the SM's next wake.
func (sh *parShard) stepSM(sm *smState, pw *parWheel, start, end int64) {
	pw.pos = start
	cycle := start
	for {
		pw.drainTo(sm, cycle)
		if sm.hasReady() {
			sh.mct.smVisits++
			ref, _ := sm.popReady()
			sh.issue(sm, ref, cycle)
			if sm.hasReady() {
				if cycle++; cycle == end {
					return
				}
				continue
			}
		}
		// Everything due by cycle was drained and issue pushes only later
		// wakes, so next > cycle.
		next := pw.peekNext()
		if next == 0 || next >= end {
			return // SM idle until the barrier
		}
		if next > cycle+1 {
			sh.mct.timeJumps++
			sh.mct.jumpedCycles += next - cycle - 1
		}
		cycle = next
	}
}

// wake is the shard-local rs.wake: warps woken during an epoch always
// belong to the issuing SM, so the target wheel is worker-owned. The
// caller has already drained the SM's wheel to cycle, so at > cycle
// implies at is past the wheel's drain mark.
func (sh *parShard) wake(sm *smState, ref warpRef, cycle, at int64) {
	if at <= cycle {
		sm.pushReady(ref)
		return
	}
	sh.mct.wakePushes++
	sh.rs.par.sms[sm.id].wheel.push(ref, at)
}

// issue is the shard-local issue(): identical instruction semantics, with
// global side effects (memory misses, retirement, sampling units) deferred
// to the barrier.
func (sh *parShard) issue(sm *smState, ref warpRef, cycle int64) {
	rs := sh.rs
	tb := &rs.tbs[ref.slot]
	w := &tb.warps[ref.w]
	var ev trace.Event
	var ok bool
	if w.stream == nil {
		ev, ok = w.synth.Next(sh.addrs[:])
	} else {
		ev, ok = w.stream.Next(sh.addrs[:])
	}
	if !ok {
		sh.finishWarp(tb, ref.w, cycle)
		return
	}
	sm.warpInsts++
	sm.lastCycle = cycle + 1
	sh.issued++

	if rs.opts.FixedUnitInsts > 0 && rs.opts.CollectBBV {
		for int(ev.Block) >= len(sh.bbv) {
			sh.bbv = append(sh.bbv, 0)
		}
		sh.bbv[ev.Block]++
	}

	switch ev.Op {
	case isa.OpEXIT:
		sh.mct.issueExit++
		sh.finishWarp(tb, ref.w, cycle)
	case isa.OpBAR:
		sh.mct.issueBar++
		tb.barArrived++
		if tb.barArrived >= tb.live {
			sh.releaseBarrier(tb, cycle)
			sh.wake(sm, ref, cycle, cycle+int64(rs.sim.cfg.Lat.BAR))
		} else {
			tb.barWaiting = append(tb.barWaiting, ref.w)
		}
	case isa.OpLDG, isa.OpSTG:
		sh.mct.issueMem++
		sh.issueMem(sm, ref, cycle, ev)
	default:
		sh.mct.issueALU++
		sh.wake(sm, ref, cycle, cycle+rs.latTab[ev.Op])
	}
}

// issueMem performs one memory instruction against worker-owned state: the
// SM's L1 and MSHR table are consulted (and the L1 allocates on miss)
// exactly as in serial mode, but misses are deferred as parReq records and
// serviced against the shared L2/DRAM at the barrier.
func (sh *parShard) issueMem(sm *smState, ref warpRef, cycle int64, ev trace.Event) {
	rs := sh.rs
	m := rs.mem
	psm := &rs.par.sms[sm.id]
	l1 := &m.l1[sm.id]
	t := &m.mshrs[sm.id]
	isStore := ev.Op == isa.OpSTG
	done := cycle + 1
	pend := int32(-1)
	for i := 0; i < int(ev.NumReq); i++ {
		addr := sh.addrs[i]
		arrive := cycle + int64(i)
		var line uint64
		if l1.lineShift >= 0 {
			line = addr >> l1.lineShift
		} else {
			line = addr / l1.lineB
		}
		slot := t.find(line)
		if t.keys[slot] != 0 {
			v := t.vals[slot]
			if v >= parSentinel {
				// Outstanding miss deferred to this epoch's barrier:
				// merge, completion known once the fill is serviced.
				sh.merges++
				if pend < 0 {
					pend = int32(len(psm.pends))
					psm.pends = append(psm.pends, parPending{ref: ref})
				}
				psm.waiters = append(psm.waiters, parWaiter{req: int32(v - parSentinel), pend: pend})
				psm.pends[pend].remaining++
				continue
			}
			if v > arrive {
				// Outstanding fill with a known completion (issued in an
				// earlier epoch): classic MSHR merge.
				sh.merges++
				if v > done {
					done = v
				}
				continue
			}
		}
		hit, wb := l1.access(addr, arrive, isStore)
		if hit {
			if c := arrive + int64(m.cfg.L1.HitLat); c > done {
				done = c
			}
			continue
		}
		// L1 miss: the line is allocated now (as in serial mode); the
		// L2/DRAM round trip — and the evicted dirty line's writeback —
		// are deferred to the barrier.
		sh.mct.deferredReqs++
		if pend < 0 {
			pend = int32(len(psm.pends))
			psm.pends = append(psm.pends, parPending{ref: ref})
		}
		req := int32(len(psm.reqs))
		psm.reqs = append(psm.reqs, parReq{arrive: arrive, addr: addr, wb: wb, pend: pend, isStore: isStore})
		psm.pends[pend].remaining++
		t.put(line, parSentinel+int64(req))
	}
	if pend < 0 {
		sh.wake(sm, ref, cycle, done)
		return
	}
	if p := &psm.pends[pend]; done > p.done {
		p.done = done
	}
}

func (sh *parShard) releaseBarrier(tb *tbState, cycle int64) {
	rs := sh.rs
	sm := &rs.sms[tb.sm]
	lat := int64(rs.sim.cfg.Lat.BAR)
	for _, wi := range tb.barWaiting {
		sh.wake(sm, warpRef{slot: tb.slot, w: wi}, cycle, cycle+lat)
	}
	tb.barWaiting = tb.barWaiting[:0]
	tb.barArrived = 0
}

func (sh *parShard) finishWarp(tb *tbState, wi int32, cycle int64) {
	w := &tb.warps[wi]
	if w.done {
		return
	}
	w.done = true
	tb.live--
	if tb.live > 0 && len(tb.barWaiting) > 0 && tb.barArrived >= tb.live {
		sh.releaseBarrier(tb, cycle)
	}
	if tb.live == 0 {
		// Global retirement (hooks, liveTBs, redispatch) happens at the
		// barrier; recording it here keeps the epoch loop worker-pure.
		psm := &sh.rs.par.sms[tb.sm]
		psm.retires = append(psm.retires, parRetire{cycle: cycle + 1, slot: tb.slot, sm: int32(tb.sm), tbID: tb.id})
	}
}

// barrier is the single-threaded end-of-epoch exchange: merge shard
// scratch, service deferred memory traffic in a deterministic global
// order, wake the waiting warps, process retirements and dispatch
// replacements, close sampling units, and poll cancellation. It leaves
// the serviced fills for the owning shards to settle into their MSHR
// tables at the next epoch start. rs.cycle is end on entry and on return
// (retirement processing rewinds it temporarily so dispatchOne sees the
// retire cycle, as the serial loop would).
func (rs *runState) barrier(end int64) {
	p := rs.par
	m := rs.mem

	// Re-anchor every wake wheel at the epoch end: all surviving entries
	// are >= end, and the barrier's own wakes land relative to end. This
	// keeps the wheel-vs-ready and wheel-vs-overflow decisions independent
	// of how far each shard happened to drain.
	for i := range p.sms {
		p.sms[i].wheel.pos = end
	}

	// 1. Fold per-shard scratch into run-global state. All of these are
	// order-independent sums, so the merge is worker-count invariant.
	for i := range p.shards {
		sh := &p.shards[i]
		rs.totalIssued += sh.issued
		sh.issued = 0
		m.MSHRMerges += sh.merges
		sh.merges = 0
		rs.mct.addFrom(&sh.mct)
		sh.mct = runCounters{}
		if len(sh.bbv) > 0 {
			for len(sh.bbv) > len(rs.bbv) {
				rs.bbv = append(rs.bbv, 0)
			}
			for b, n := range sh.bbv {
				rs.bbv[b] += n
				sh.bbv[b] = 0
			}
			sh.bbv = sh.bbv[:0]
		}
	}

	// 2. Service deferred L1 misses against the L2/DRAM in globally sorted
	// (arrive, sm, index) order — a total order independent of sharding.
	refs := p.sortReqRefs()
	l2Lat := int64(m.cfg.L2.HitLat)
	rtLat := int64(m.cfg.L1.HitLat + m.cfg.L2.HitLat)
	for _, r := range refs {
		req := &p.sms[r.sm].reqs[r.idx]
		if req.wb != 0 {
			m.writeback(int(r.sm), req.wb, req.arrive)
		}
		hit2, wb2 := m.l2.access(req.addr, req.arrive, req.isStore)
		if wb2 != 0 {
			m.dram.access(wb2, req.arrive+l2Lat)
		}
		if hit2 {
			req.done = req.arrive + rtLat
		} else {
			req.done = m.dram.access(req.addr, req.arrive+l2Lat)
		}
		// The owning shard writes done into the MSHR table (settle).
		psm := &p.sms[r.sm]
		psm.order = append(psm.order, r.idx)
	}

	// 3. Resolve waiters against their fills, then wake every pending
	// instruction: SMs ascending, creation order within an SM. Wakes whose
	// completion fell inside the epoch land in the past and pop at the
	// next epoch's first drain — this clamp is the mode's divergence.
	for smi := range p.sms {
		psm := &p.sms[smi]
		for _, wt := range psm.waiters {
			pd := &psm.pends[wt.pend]
			if d := psm.reqs[wt.req].done; d > pd.done {
				pd.done = d
			}
			pd.remaining--
		}
		for ri := range psm.reqs {
			pd := &psm.pends[psm.reqs[ri].pend]
			if d := psm.reqs[ri].done; d > pd.done {
				pd.done = d
			}
			pd.remaining--
		}
		for i := range psm.pends {
			pd := &psm.pends[i]
			if pd.remaining != 0 {
				panic(fmt.Sprintf("gpusim: parallel barrier left %d unresolved requests on SM %d", pd.remaining, smi))
			}
			rs.wake(pd.ref, pd.done)
		}
		psm.waiters = psm.waiters[:0]
		psm.pends = psm.pends[:0]
	}

	// 4. Retirements in (cycle, sm) order — at most one issue per SM per
	// cycle makes the key unique, so the order is total and
	// shard-independent. dispatchOne runs with rs.cycle rewound to the
	// retire cycle so dispatch stagger and hook timestamps match the
	// serial path's view.
	rets := p.retires[:0]
	for smi := range p.sms {
		rets = append(rets, p.sms[smi].retires...)
	}
	slices.SortFunc(rets, func(a, b parRetire) int {
		if c := cmp.Compare(a.cycle, b.cycle); c != 0 {
			return c
		}
		return cmp.Compare(a.sm, b.sm)
	})
	p.retires = rets
	h := rs.hooks()
	for _, r := range rets {
		sm := &rs.sms[r.sm]
		sm.resident--
		rs.liveTBs--
		rs.res.SimulatedTBs++
		if h.OnTBRetire != nil {
			h.OnTBRetire(r.tbID, int(r.sm), r.cycle)
		}
		if rs.specified == r.slot {
			rs.closeUnit(r.cycle, r.tbID)
		}
		rs.free = append(rs.free, r.slot)
		if r.cycle > p.maxRetire {
			p.maxRetire = r.cycle
		}
		if !rs.aborted {
			rs.cycle = r.cycle
			rs.dispatchOne(sm)
		}
	}
	for smi := range p.sms {
		p.sms[smi].retires = p.sms[smi].retires[:0]
	}
	rs.cycle = end

	// 5. Fixed-size sampling units close at barriers (epoch-quantized).
	if rs.opts.FixedUnitInsts > 0 && rs.totalIssued-rs.fixedStartInsts >= rs.opts.FixedUnitInsts {
		rs.closeFixedUnit()
	}
	rs.checkAbort()
}

// sortReqRefs gathers every SM's deferred requests into p.reqRefs in
// (arrive, sm, idx) order. Gathering walks SMs ascending and each SM's
// requests in creation order, so a stable counting sort on arrive alone
// yields the full order in O(n + span), span being the spread of arrive
// cycles (about one quantum plus trace.MaxRequests).
func (p *parState) sortReqRefs() []parReqRef {
	n := 0
	lo, hi := int64(0), int64(-1)
	for smi := range p.sms {
		for _, r := range p.sms[smi].reqs {
			if n == 0 || r.arrive < lo {
				lo = r.arrive
			}
			if n == 0 || r.arrive > hi {
				hi = r.arrive
			}
			n++
		}
	}
	refs := slices.Grow(p.reqRefs[:0], n)[:n]
	p.reqRefs = refs
	if n == 0 {
		return refs
	}
	span := hi - lo + 1
	if span > parCountSortMaxSpan {
		k := 0
		for smi := range p.sms {
			for ri, r := range p.sms[smi].reqs {
				refs[k] = parReqRef{arrive: r.arrive, sm: int32(smi), idx: int32(ri)}
				k++
			}
		}
		slices.SortFunc(refs, compareReqRefs)
		return refs
	}
	// counts[c] is the number of requests arriving before lo+c, then the
	// next free position for arrive cycle lo+c.
	counts := slices.Grow(p.counts[:0], int(span)+1)[:span+1]
	clear(counts)
	p.counts = counts
	for smi := range p.sms {
		for _, r := range p.sms[smi].reqs {
			counts[r.arrive-lo+1]++
		}
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	for smi := range p.sms {
		for ri, r := range p.sms[smi].reqs {
			c := r.arrive - lo
			refs[counts[c]] = parReqRef{arrive: r.arrive, sm: int32(smi), idx: int32(ri)}
			counts[c]++
		}
	}
	return refs
}

// compareReqRefs is the (arrive, sm, idx) order of deferred requests.
func compareReqRefs(a, b parReqRef) int {
	if c := cmp.Compare(a.arrive, b.arrive); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sm, b.sm); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}
