// Package decide is the decision kernel both execution engines run — the
// simulator (internal/sim) and the scheduler daemon (internal/server) —
// so the paper's online heuristics are resolved by one implementation of
// the rule, not two copies held equal by tests. The kernel owns the
// candidate set, the skip ladder (memo → single-full-grant → saturating
// → invoke) under the policy's declared capabilities, the iosched-sim/3
// memo rule, the skip counters and the decision-trace Seq, and the
// observation pass that builds each decision point's telemetry.Point
// once for the probe and the health monitor.
//
// Engines are adapters: they supply the clock, the capacity, the
// burst-buffer level and their own side effects of a changed verdict
// (Hooks).
package decide

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/health"
	"repro/internal/telemetry"
)

// Member is one application's record in a Kernel's candidate set. An
// engine keeps one per application at a stable address, pointing at the
// engine-owned view and grant the kernel reads and updates.
type Member struct {
	View *core.AppView
	BW   *float64 // the currently applied grant (GiB/s)
	// Key orders the candidate view handed to the policy, the trace and
	// the telemetry walk: app index in the simulator, app ID in the
	// daemon, each engine's floating-point order. Keys are unique.
	Key int
	// Owner is the engine's per-application record, for Hooks.Granted.
	Owner any

	slot     int32 // index+1 in Kernel.set; 0 when not a candidate
	inSorted bool  // present in Kernel.sorted, possibly as a stale entry
}

// Hooks is the engine's side of a decision point.
type Hooks interface {
	// Granted runs the engine's side effects of a changed verdict, after
	// the kernel installed the new *m.BW and updated the view. A verdict
	// equal to the previous *m.BW is not reported.
	Granted(m *Member)
	// Kind names what triggered the decision point; the kernel asks only
	// when a trace sink is attached.
	Kind() string
}

// Config configures a Kernel. The three observation layers are
// nil-gated: nil leaves the decision path untouched.
type Config struct {
	Policy core.Scheduler
	Hooks  Hooks
	// CheckGrants validates every policy verdict against the capacity
	// and panics on a violation (tests; small overhead).
	CheckGrants bool

	Trace     dectrace.Sink
	Telemetry *telemetry.Probe
	Health    *health.Monitor
}

// Counts are the decision-point counters: every decision point with
// candidates is a Decision (the policy ran) or Skipped, and the three
// per-reason counts (core.SkipReason) sum to Skipped.
type Counts struct {
	Decisions, Skipped       uint64
	Memo, Saturating, Single uint64
}

// State is what a simulator snapshot carries across a resume: the
// counters, the candidate-set version and the memo, live when MemoValid
// (a decision was applied under MemoCap and the version has not moved).
type State struct {
	Counts
	Version   uint64
	MemoValid bool
	MemoCap   core.Capacity
}

// Kernel resolves decision points. It is not safe for concurrent use;
// the daemon calls it under its allocation-round lock.
type Kernel struct {
	policy core.Scheduler
	caps   core.EngineCaps
	scr    core.Scratch
	hooks  Hooks
	check  bool

	trace   dectrace.Sink
	probe   *telemetry.Probe
	monitor *health.Monitor

	// set is the candidate set, unordered. version bumps on every
	// membership change and every discrete view change (Add, apply); gen
	// on membership changes only.
	set     []*Member
	version uint64
	gen     uint64

	// sorted/views are the set in Key order, brought up to date only when
	// read after a membership change.
	sorted   []*Member
	views    []*core.AppView
	sortedAt uint64

	// byID/ids are the set in View.ID order and its IDs, for grant
	// lookups, settled on the first lookup after a membership change.
	// byID is sorted itself when Key order is ID order (always in the
	// daemon; in the simulator when IDs ascend with the app index) and
	// otherwise an ID-sorted copy in byIDBuf.
	byID, byIDBuf []*Member
	ids           []int
	byIDAt        uint64

	// The memo: the version and capacity of the last applied decision.
	decided        bool
	decidedVersion uint64
	decidedCap     core.Capacity

	grants []float64 // one decision's verdict, indexed like set
	counts Counts
}

// New returns a kernel with an empty candidate set.
func New(cfg Config) *Kernel {
	return &Kernel{
		policy:  cfg.Policy,
		caps:    core.CapsOf(cfg.Policy),
		hooks:   cfg.Hooks,
		check:   cfg.CheckGrants,
		trace:   cfg.Trace,
		probe:   cfg.Telemetry,
		monitor: cfg.Health,
	}
}

// SetPolicy switches the policy and drops the memo.
func (k *Kernel) SetPolicy(p core.Scheduler) {
	k.policy = p
	k.caps = core.CapsOf(p)
	k.decided = false
}

// Counts returns the decision-point counters.
func (k *Kernel) Counts() Counts { return k.counts }

// Len returns the number of candidates.
func (k *Kernel) Len() int { return len(k.set) }

// Add makes m a candidate, or records a discrete change to a candidate's
// view made outside the kernel (a new request from a candidate); either
// way the memo dies.
func (k *Kernel) Add(m *Member) {
	k.version++
	if m.slot != 0 {
		return
	}
	k.set = append(k.set, m)
	m.slot = int32(len(k.set))
	k.gen++
}

// Remove drops m from the candidate set, swapping the last candidate
// into its slot (no-op for a non-member).
func (k *Kernel) Remove(m *Member) {
	if m.slot == 0 {
		return
	}
	i, n := m.slot-1, len(k.set)-1
	k.set[i] = k.set[n]
	k.set[i].slot = i + 1
	k.set = k.set[:n]
	m.slot = 0
	k.version++
	k.gen++
}

// State captures the counters, the version and the memo.
func (k *Kernel) State() State {
	return State{
		Counts:    k.counts,
		Version:   k.version,
		MemoValid: k.decided && k.version == k.decidedVersion,
		MemoCap:   k.decidedCap,
	}
}

// Restore reinstates a captured State once the candidate set is rebuilt.
// The version only moves forward — only equality matters to the kernel,
// and trace records stay continuous — and a valid memo is re-anchored at
// the current version.
func (k *Kernel) Restore(st State) {
	k.counts = st.Counts
	k.version = max(k.version, st.Version)
	if st.MemoValid {
		k.memo(k.version, st.MemoCap)
	}
}

// Views returns the candidate views in Key order.
//
//iosched:allocfree
func (k *Kernel) Views() []*core.AppView {
	k.sortedView()
	return k.views
}

//iosched:allocfree
func (k *Kernel) sortedView() []*Member {
	if k.sortedAt == k.gen {
		return k.sorted
	}
	// Keep the previous order minus the removed members and append the
	// newcomers: pdqsort finishes such nearly sorted input in about one
	// pass, where sorting the unordered set would pay n log n.
	out := k.sorted[:0]
	for _, m := range k.sorted {
		if m.slot != 0 {
			out = append(out, m)
		} else {
			m.inSorted = false
		}
	}
	for _, m := range k.set {
		if !m.inSorted {
			out = append(out, m)
			m.inSorted = true
		}
	}
	slices.SortFunc(out, func(a, b *Member) int { return cmp.Compare(a.Key, b.Key) })
	k.sorted, k.views = out, k.views[:0]
	for _, m := range out {
		k.views = append(k.views, m.View)
	}
	k.sortedAt = k.gen
	return out
}

// member returns the candidate with the given application ID, or nil. It
// searches the candidate set itself, so an engine needs no ID → member
// lookup of its own. Callers have just read the sorted view.
//
//iosched:allocfree
func (k *Kernel) member(id int) *Member {
	if k.byIDAt != k.gen {
		k.byID = k.sorted
		k.ids = k.ids[:0]
		for _, v := range k.views {
			k.ids = append(k.ids, v.ID)
		}
		if !slices.IsSorted(k.ids) {
			k.byIDBuf = append(k.byIDBuf[:0], k.sorted...)
			slices.SortFunc(k.byIDBuf, func(a, b *Member) int { return cmp.Compare(a.View.ID, b.View.ID) })
			k.byID = k.byIDBuf
			slices.Sort(k.ids)
		}
		k.byIDAt = k.gen
	}
	i, ok := slices.BinarySearch(k.ids, id)
	if !ok {
		return nil
	}
	return k.byID[i]
}

// NextWake asks a Waker policy for its next self-chosen decision point;
// false when the policy is no Waker or there are no candidates.
func (k *Kernel) NextWake(now float64) (float64, bool) {
	if k.caps.Waker == nil || len(k.set) == 0 {
		return 0, false
	}
	return k.caps.Waker.NextWake(now, k.Views())
}

// Decide resolves one decision point: skip when the outcome is provably
// the previous one (memo), apply the known outcome a capability proves
// (single-full-grant, saturating), or invoke the policy. A point without
// candidates is no decision point.
//
//iosched:allocfree
func (k *Kernel) Decide(now float64, cap core.Capacity) {
	if len(k.set) == 0 {
		return
	}
	// Memoizable skip: the policy's output is a pure function of the
	// candidate set, its discrete state and the capacity, and none of
	// them changed since the applied decision.
	if k.caps.Memoizable && k.decided && k.version == k.decidedVersion && cap == k.decidedCap {
		k.counts.Skipped++
		k.counts.Memo++
		if k.trace != nil {
			// Apps and grants are the previous record's, unchanged.
			k.emit(core.SkipMemo, now, cap, k.version, nil, nil)
		}
		return
	}
	var apps []dectrace.AppRecord
	if k.trace != nil {
		apps = dectrace.CaptureApps(nil, k.Views()) // before apply mutates the views
	}
	// An invocation is memoized under the version it was computed from:
	// applying it may bump the version, and a memo over the
	// pre-application inputs must not survive that. A fast-path outcome
	// depends only on the set and the capacity, not on the view fields
	// apply changes, so it is memoized under the post-apply version.
	// apply touches only per-candidate state and the version, so the
	// unordered walks are equivalent to sorted ones.
	var policy []core.Grant
	ver := k.version
	reason := k.fastPath(cap)
	if reason == core.SkipNone {
		policy = k.invoke(now, cap)
		for i, m := range k.set {
			k.apply(m, k.grants[i], now)
		}
	} else {
		for _, m := range k.set {
			k.apply(m, min(float64(m.View.Nodes)*cap.NodeBW, cap.TotalBW), now)
		}
		ver = k.version
	}
	k.memo(ver, cap)
	if k.trace != nil {
		var grants []dectrace.GrantRecord
		if reason == core.SkipNone {
			grants = dectrace.CaptureGrants(nil, policy)
		} else {
			for _, m := range k.sortedView() {
				grants = append(grants, dectrace.GrantRecord{ID: m.View.ID, BW: *m.BW})
			}
		}
		k.emit(reason, now, cap, ver, apps, grants)
	}
}

// fastPath reports (and counts) the capability that proves the outcome
// without invoking the policy — every candidate receives min(β·b, B) —
// or SkipNone.
//
//   - SingleFullGrant: a lone candidate receives exactly min(β·b, B), the
//     expression GreedyAllocate evaluates.
//   - Saturating: when total demand fits the capacity with a relative
//     margin that dwarfs summation rounding, every candidate receives
//     exactly β·b (< B, so the same min). The margin also lets the sum
//     run over the unordered set: any accumulation order lands on the
//     same side of the threshold, so skip rounds never sort.
//
//iosched:allocfree
func (k *Kernel) fastPath(cap core.Capacity) core.SkipReason {
	if k.caps.SingleFullGrant && len(k.set) == 1 {
		k.counts.Skipped++
		k.counts.Single++
		return core.SkipSingleFullGrant
	}
	if !k.caps.Saturating {
		return core.SkipNone
	}
	demand := 0.0
	for _, m := range k.set {
		demand += float64(m.View.Nodes) * cap.NodeBW
	}
	if demand > cap.TotalBW*(1-1e-9) {
		return core.SkipNone
	}
	k.counts.Skipped++
	k.counts.Saturating++
	return core.SkipSaturating
}

// invoke runs the policy over the sorted views and fills k.grants,
// indexed like the set.
//
//iosched:allocfree
func (k *Kernel) invoke(now float64, cap core.Capacity) []core.Grant {
	views := k.Views()
	grants := core.AllocateWith(k.policy, &k.scr, now, views, cap)
	k.counts.Decisions++
	if k.check {
		if err := core.ValidateGrants(grants, views, cap); err != nil {
			//iosched:allocfree-allow CheckGrants is a test-only option and a violation ends the run
			panic(fmt.Sprintf("decide: policy %s: %v", k.policy.Name(), err))
		}
	}
	//iosched:allocfree-allow grows to the candidate high-water mark, then reused
	k.grants = slices.Grow(k.grants[:0], len(k.set))[:len(k.set)]
	clear(k.grants)
	for _, g := range grants {
		if m := k.member(g.AppID); m != nil {
			k.grants[m.slot-1] = g.BW
		}
	}
	return grants
}

func (k *Kernel) memo(ver uint64, cap core.Capacity) {
	k.decided, k.decidedVersion, k.decidedCap = true, ver, cap
}

// apply installs one candidate's verdict, keeps its scheduler-visible
// phase in step and runs the engine's side effects when the verdict
// changed.
//
// Applying a verdict can itself change discrete view state a Memoizable
// policy may read — Started flips on a first grant (the Priority
// partition orders on it), Phase toggles, a preemption restarts
// PendingSince. Each such change bumps the version, so the memo over the
// pre-application inputs dies with it and the next decision point
// re-invokes the policy exactly where an every-event loop could have
// decided differently (iosched-sim/3). Re-applying an unchanged verdict
// bumps nothing, so steady congested states converge to memo skips.
//
//iosched:allocfree
func (k *Kernel) apply(m *Member, bw, now float64) {
	old := *m.BW
	*m.BW = bw
	v := m.View
	if bw > 0 {
		if !v.Started || v.Phase != core.Transferring {
			k.version++
		}
		v.Phase = core.Transferring
		v.Started = true
	} else {
		if v.Phase == core.Transferring {
			v.PendingSince = now // preempted: the stall clock restarts
			k.version++
		}
		v.Phase = core.Pending
	}
	if bw != old {
		k.hooks.Granted(m)
	}
}

// emit hands one decision record to the trace sink. Seq is the decision
// point's ordinal, decisions + skips, which continues across simulator
// snapshot resumes because State carries the counters.
func (k *Kernel) emit(verdict core.SkipReason, now float64, cap core.Capacity, ver uint64, apps []dectrace.AppRecord, grants []dectrace.GrantRecord) {
	if k.trace == nil {
		return
	}
	k.trace.Observe(&dectrace.Record{
		Seq:         k.counts.Decisions + k.counts.Skipped,
		Time:        now,
		Kind:        k.hooks.Kind(),
		Policy:      k.policy.Name(),
		Verdict:     verdict.String(),
		CandVersion: ver,
		TotalBW:     cap.TotalBW,
		NodeBW:      cap.NodeBW,
		Decisions:   int(k.counts.Decisions),
		Skipped:     int(k.counts.Skipped),
		Apps:        apps,
		Grants:      grants,
	})
}

// Point builds the congestion sample of the current candidate state.
//
//iosched:allocfree
func (k *Kernel) Point(now float64, cap core.Capacity, bbLevel float64) telemetry.Point {
	var b telemetry.PointBuilder
	for _, m := range k.sortedView() {
		b.Add(now, m.View, *m.BW, cap.NodeBW)
	}
	return b.Finish(now, cap.TotalBW, bbLevel)
}

// Observe is the decision point's observation pass, run after Decide. It
// builds the point once, only when the probe's MinInterval gate is Due
// or a monitor is attached, and records it into both. The monitor sees
// every decision point, never sampled, so its firing sequence is a
// deterministic function of the workload and policy in either engine.
//
//iosched:allocfree
func (k *Kernel) Observe(now float64, cap core.Capacity, bbLevel float64) {
	var pr *telemetry.Probe
	if k.probe != nil && k.probe.Due(now) {
		pr = k.probe
	}
	if pr == nil && k.monitor == nil {
		return
	}
	pt := k.Point(now, cap, bbLevel)
	if pr != nil {
		pr.Record(pt)
	}
	if k.monitor != nil {
		k.monitor.Observe(pt)
	}
}
