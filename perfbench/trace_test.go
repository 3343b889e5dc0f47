package main

import (
	"sync"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	// A cell [0,100] fans two workers out under par: their spans [10,60]
	// and [40,90] overlap, covering [10,90] together. Self time is 20, not
	// 100-50-50 = 0; summing children would count [40,60] twice.
	spans := []span{
		{ID: 1, Name: "bench", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "gpusim.fullref", Start: ms(10), End: ms(60)},
		{ID: 3, Parent: 1, Name: "gpusim.fullref", Start: ms(40), End: ms(90)},
	}
	got := selfTimes(spans)
	if got["bench"] != ms(20) {
		t.Errorf("bench self = %v, want 20ms", got["bench"])
	}
	if got["gpusim.fullref"] != ms(100) {
		t.Errorf("fullref self = %v, want 100ms (both worker spans)", got["gpusim.fullref"])
	}
}

func TestSelfTimeClipsAndNests(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: ms(0), End: ms(50)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(5), End: ms(15)},
		{ID: 3, Parent: 1, Name: "a", Start: ms(20), End: ms(30)},
		{ID: 4, Parent: 3, Name: "b", Start: ms(22), End: ms(26)},
		// A child that outlives its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "c", Start: ms(45), End: ms(60)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"pass": ms(25), "a": ms(16), "b": ms(4), "c": ms(15)}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s self = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.do("work", root, func() { time.Sleep(time.Millisecond) })
		}()
	}
	wg.Wait()
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 9 {
		t.Fatalf("%d spans, want 9", len(spans))
	}
	self := selfTimes(spans)
	pass := spans[0].End - spans[0].Start
	if self["pass"] < 0 || self["pass"] > pass {
		t.Errorf("pass self %v outside [0, %v]", self["pass"], pass)
	}
	if self["work"] < 8*time.Millisecond {
		t.Errorf("work self %v, want at least 8 x 1ms", self["work"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", tr.begin("root", 0), func() { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Error("a nil tracer must run the call and record nothing")
	}
}

func TestRecordedSpansSplitTheirParent(t *testing.T) {
	// A tenant's wait on a job holds the queue wait and run the server
	// stamped; what is left of the wait is event delivery.
	tr := newTracer()
	wait := tr.begin("server.wait", 0)
	t0 := tr.t0
	tr.record("server.queue", wait, t0.Add(ms(10)), t0.Add(ms(30)))
	tr.record("server.run", wait, t0.Add(ms(30)), t0.Add(ms(80)))
	tr.spans[wait-1].Start, tr.spans[wait-1].End = ms(5), ms(90)
	self := selfTimes(tr.snapshot())
	want := map[string]time.Duration{"server.wait": ms(15), "server.queue": ms(20), "server.run": ms(50)}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("%s self = %v, want %v", name, self[name], w)
		}
	}
}
