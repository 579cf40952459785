package main

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dectrace"
)

// timedPolicy times every Allocate call of the policy it wraps. It
// forwards the capabilities the engines resolve through core.CapsOf
// (Memoizable, Saturating, SingleFullGrant, ScratchAllocator) with the
// inner policy's own answers, so an engine takes exactly the decisions it
// would take on the bare policy. timedWaker adds core.Waker for policies
// that have it; timed picks the variant, so CapsOf never gains a Waker
// the inner policy lacks.
//
// Both engines call their policy from one decision thread at a time; the
// lock lets the benchmark read the timings while a daemon is live.
type timedPolicy struct {
	inner core.Scheduler
	mu    sync.Mutex
	// ns holds the duration of every call, in call order.
	ns []int64
}

type timedWaker struct {
	*timedPolicy
	waker core.Waker
}

func (w timedWaker) NextWake(now float64, apps []*core.AppView) (float64, bool) {
	return w.waker.NextWake(now, apps)
}

// timed wraps s. The returned *timedPolicy reads the timings.
func timed(s core.Scheduler) (core.Scheduler, *timedPolicy) {
	t := &timedPolicy{inner: s}
	if w, ok := s.(core.Waker); ok {
		return timedWaker{t, w}, t
	}
	return t, t
}

func (t *timedPolicy) Name() string          { return t.inner.Name() }
func (t *timedPolicy) Memoizable() bool      { return core.IsMemoizable(t.inner) }
func (t *timedPolicy) Saturating() bool      { return core.IsSaturating(t.inner) }
func (t *timedPolicy) SingleFullGrant() bool { return core.IsSingleFullGrant(t.inner) }

func (t *timedPolicy) Allocate(now float64, apps []*core.AppView, c core.Capacity) []core.Grant {
	start := time.Now()
	g := t.inner.Allocate(now, apps, c)
	t.record(start)
	return g
}

// AllocateInto dispatches like core.AllocateWith, so a policy without
// scratch support still runs its own Allocate.
func (t *timedPolicy) AllocateInto(scr *core.Scratch, now float64, apps []*core.AppView, c core.Capacity) []core.Grant {
	start := time.Now()
	g := core.AllocateWith(t.inner, scr, now, apps, c)
	t.record(start)
	return g
}

func (t *timedPolicy) record(start time.Time) {
	d := int64(time.Since(start))
	t.mu.Lock()
	t.ns = append(t.ns, d)
	t.mu.Unlock()
}

// calls returns the durations recorded so far.
func (t *timedPolicy) calls() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ns[:len(t.ns):len(t.ns)]
}

// allocStats accumulates Allocate timings over several wrapped policies.
type allocStats struct {
	ns []float64
}

func (a *allocStats) add(t *timedPolicy) {
	for _, d := range t.calls() {
		a.ns = append(a.ns, float64(d))
	}
}

// set reports the core-layer metrics, per operation of the workload.
func (a *allocStats) set(r *report, ops int) {
	n := float64(max(ops, 1))
	r.set("core.allocate_calls", float64(len(a.ns))/n)
	r.set("core.allocate_s", sum(a.ns)/1e9/n)
	r.set("core.allocate_ns_p50", quantile(a.ns, 0.50))
	r.set("core.allocate_ns_p99", quantile(a.ns, 0.99))
}

// timedSink times the Observe calls of the decision-trace sink it wraps.
type timedSink struct {
	inner   dectrace.Sink
	total   time.Duration
	records int
}

func (s *timedSink) Observe(r *dectrace.Record) {
	start := time.Now()
	s.inner.Observe(r)
	s.total += time.Since(start)
	s.records++
}
