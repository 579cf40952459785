package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/decide"
)

// Snapshot is the complete state of a simulation at one processed event
// instant: the clock, the per-application phase machines, the decision
// memo and the burst-buffer level. It is the simulator's warm-start API —
// Resume continues a captured run with bit-identical floating point
// (pinned by TestSplitRunEquivalence over the cross-engine battery), and
// the digital-twin layer (internal/twin) builds Snapshots from a live
// daemon's state to forecast the system forward under candidate policies.
//
// Snapshots are plain data: they marshal to JSON, may be persisted and
// resumed in another process, and never alias simulator internals. A
// Snapshot only makes sense together with the Config that produced it
// (same platform, same applications); Resume validates the pairing.
type Snapshot struct {
	// Time is the event instant the state was captured at: the last
	// event processed at or before the requested stop time.
	Time float64 `json:"time"`

	// Events, Decisions and Skipped carry the run counters so a resumed
	// run's Result accounts for the whole execution, not just the tail.
	Events    int `json:"events"`
	Decisions int `json:"decisions"`
	Skipped   int `json:"skipped"`

	// Per-reason breakdown of Skipped (core.SkipReason); the three sum
	// to Skipped. Omitted from JSON when zero.
	SkippedMemo            int `json:"skipped_memo,omitempty"`
	SkippedSaturating      int `json:"skipped_saturating,omitempty"`
	SkippedSingleFullGrant int `json:"skipped_single_full_grant,omitempty"`

	// CandVersion carries the candidate-set version counter so decision
	// traces are continuous across a resume (records carry the version;
	// only equality between versions ever matters to the engine itself).
	CandVersion uint64 `json:"cand_version,omitempty"`

	// MemoValid reports that the engine's decision memo was live at the
	// capture instant: a decision has been applied and no discrete
	// scheduler-visible state changed since. MemoTotalBW/MemoNodeBW are
	// the capacity that decision saw. Restoring them lets a Memoizable
	// policy keep skipping exactly where the uninterrupted run would.
	MemoValid   bool    `json:"memo_valid,omitempty"`
	MemoTotalBW float64 `json:"memo_total_bw,omitempty"`
	MemoNodeBW  float64 `json:"memo_node_bw,omitempty"`

	// RedecideOnResume forces one allocation round at the resume instant
	// before any event is processed. Captured snapshots never set it —
	// faithful resumes must not decide twice at the capture instant —
	// but forecasting callers switching the policy set it so the new
	// policy re-shares bandwidth immediately instead of inheriting the
	// old policy's grants until the next event.
	RedecideOnResume bool `json:"redecide_on_resume,omitempty"`

	// BB is the burst-buffer state; nil when the run has none.
	BB *BBState `json:"bb,omitempty"`

	Apps []AppState `json:"apps"`
}

// BBState is a burst buffer's captured state.
type BBState struct {
	LevelGiB  float64 `json:"level_gib"`
	PeakGiB   float64 `json:"peak_gib"`
	FullTimeS float64 `json:"full_time_s"`
}

// Application phase names as they appear in a Snapshot. They mirror the
// simulator's internal phase machine, which is finer than core.Phase: a
// "requesting" application is scheduler-invisible (its request is still
// in flight), and "io" covers both pending and transferring (BW > 0
// distinguishes them).
const (
	PhaseNotReleased = "not-released"
	PhaseComputing   = "computing"
	PhaseRequesting  = "requesting"
	PhaseIO          = "io"
	PhaseFinished    = "finished"
)

// AppState is one application's captured state. Fields that are
// meaningless for the current phase are zero and omitted from JSON.
type AppState struct {
	ID    int    `json:"id"`
	Phase string `json:"phase"`
	// Instance is the index of the current compute/I-O instance
	// (= len(Instances) once finished).
	Instance int `json:"instance"`
	// Until is the pending phase deadline: the release, the compute
	// completion, or the instant the in-flight request becomes visible.
	// Only meaningful for not-released/computing/requesting.
	Until float64 `json:"until,omitempty"`
	// BW is the application's current aggregate grant (io phase only).
	BW float64 `json:"bw_gibs,omitempty"`
	// IOStart is when the current instance first wanted I/O; IOTime the
	// wall-clock I/O time accumulated over completed instances.
	IOStart float64 `json:"io_start,omitempty"`
	IOTime  float64 `json:"io_time,omitempty"`
	// Finish is the completion instant (finished phase only).
	Finish float64 `json:"finish,omitempty"`

	// Scheduler-visible view state (core.AppView).
	RemVolume     float64 `json:"rem_volume_gib,omitempty"`
	Started       bool    `json:"started,omitempty"`
	LastIOEnd     float64 `json:"last_io_end,omitempty"`
	PendingSince  float64 `json:"pending_since,omitempty"`
	CreditedWork  float64 `json:"credited_work_s,omitempty"`
	CreditedIdeal float64 `json:"credited_ideal_s,omitempty"`
}

// Done reports whether every application has finished.
func (snap *Snapshot) Done() bool {
	for i := range snap.Apps {
		if snap.Apps[i].Phase != PhaseFinished {
			return false
		}
	}
	return true
}

// Clone returns a deep copy, so forecasting callers can tweak resume
// options per candidate policy without aliasing.
func (snap *Snapshot) Clone() *Snapshot {
	c := *snap
	if snap.BB != nil {
		b := *snap.BB
		c.BB = &b
	}
	c.Apps = append([]AppState(nil), snap.Apps...)
	return &c
}

// RunToSnapshot executes a fresh simulation, processing every event at a
// time <= stopAt, and captures the state at the last processed event
// instant (Snapshot.Time <= stopAt). Resuming the snapshot completes the
// run bit-identically to an uninterrupted Run of the same Config.
func RunToSnapshot(cfg Config, stopAt float64) (*Snapshot, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	s := newSimulation(cfg)
	s.fireDue()
	s.decide()
	if _, err := s.loop(stopAt); err != nil {
		return nil, err
	}
	return s.snapshot(), nil
}

// Resume continues a snapshot to completion under cfg's scheduler and
// returns the full-run Result (counters include the pre-snapshot
// prefix). cfg must describe the same platform and applications that
// produced the snapshot; the scheduler may differ (a what-if resume) —
// set snap.RedecideOnResume when it does, or the old policy's grants
// persist until the next event.
func Resume(cfg Config, snap *Snapshot) (*Result, error) {
	s, err := newSimulationFromSnapshot(cfg, snap)
	if err != nil {
		return nil, err
	}
	if snap.RedecideOnResume {
		s.decide()
	}
	if _, err := s.loop(math.Inf(1)); err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// ResumeToSnapshot fast-forwards a snapshot until the first event after
// stopAt and captures the state there. It is the twin's horizon step:
// chain it to alternate simulated execution with decisions made outside
// the simulator (policy switches, arrivals), or call it with stopAt =
// +Inf to run to completion and read the final state.
func ResumeToSnapshot(cfg Config, snap *Snapshot, stopAt float64) (*Snapshot, error) {
	s, err := newSimulationFromSnapshot(cfg, snap)
	if err != nil {
		return nil, err
	}
	if snap.RedecideOnResume {
		s.decide()
	}
	if _, err := s.loop(stopAt); err != nil {
		return nil, err
	}
	return s.snapshot(), nil
}

// snapshot captures the simulation state. Callers sit between loop
// iterations: every event at the current instant has fired and the
// decision point is resolved, so the lists and the memo are consistent.
func (s *simulation) snapshot() *Snapshot {
	ks := s.k.State()
	snap := &Snapshot{
		Time:                   s.now,
		Events:                 s.events,
		Decisions:              int(ks.Decisions),
		Skipped:                int(ks.Skipped),
		SkippedMemo:            int(ks.Memo),
		SkippedSaturating:      int(ks.Saturating),
		SkippedSingleFullGrant: int(ks.Single),
		CandVersion:            ks.Version,
	}
	if ks.MemoValid {
		snap.MemoValid = true
		snap.MemoTotalBW = ks.MemoCap.TotalBW
		snap.MemoNodeBW = ks.MemoCap.NodeBW
	}
	if s.buffer != nil {
		snap.BB = &BBState{
			LevelGiB:  s.buffer.Level(),
			PeakGiB:   s.buffer.Peak(),
			FullTimeS: s.buffer.FullTime(),
		}
	}
	snap.Apps = make([]AppState, len(s.apps))
	for i := range s.apps {
		st := &s.apps[i]
		as := AppState{
			ID:            st.app.ID,
			Instance:      st.idx,
			BW:            st.bw,
			IOStart:       st.ioStart,
			IOTime:        st.ioTime,
			Finish:        st.finish,
			RemVolume:     st.view.RemVolume,
			Started:       st.view.Started,
			LastIOEnd:     st.view.LastIOEnd,
			PendingSince:  st.view.PendingSince,
			CreditedWork:  st.view.CreditedWork,
			CreditedIdeal: st.view.CreditedIdeal,
		}
		switch st.phase {
		case notReleased:
			as.Phase = PhaseNotReleased
			as.Until = st.until
		case computing:
			as.Phase = PhaseComputing
			as.Until = st.until
		case requesting:
			as.Phase = PhaseRequesting
			as.Until = st.until
		case doingIO:
			as.Phase = PhaseIO
		case finished:
			as.Phase = PhaseFinished
		}
		snap.Apps[i] = as
	}
	return snap
}

// newSimulationFromSnapshot rebuilds a simulation mid-flight: appStates,
// kernel timers, the incremental candidate/active/zero-pending lists and
// the decision memo are reconstructed so the event loop continues exactly
// where the captured one stopped.
func newSimulationFromSnapshot(cfg Config, snap *Snapshot) (*simulation, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("sim: nil snapshot")
	}
	if len(snap.Apps) != len(cfg.Apps) {
		return nil, fmt.Errorf("sim: snapshot has %d apps, config %d", len(snap.Apps), len(cfg.Apps))
	}
	byID := make(map[int]*AppState, len(snap.Apps))
	for i := range snap.Apps {
		as := &snap.Apps[i]
		if _, dup := byID[as.ID]; dup {
			return nil, fmt.Errorf("sim: snapshot has duplicate app %d", as.ID)
		}
		byID[as.ID] = as
	}

	s := &simulation{cfg: cfg, p: cfg.Platform, now: snap.Time}
	s.setup()
	s.apps = make([]appState, len(cfg.Apps))
	s.events = snap.Events
	for i, a := range cfg.Apps {
		as, ok := byID[a.ID]
		if !ok {
			return nil, fmt.Errorf("sim: snapshot has no state for app %d", a.ID)
		}
		st := &s.apps[i]
		*st = appState{
			app:       a,
			index:     i,
			idx:       as.Instance,
			until:     as.Until,
			bw:        as.BW,
			ioStart:   as.IOStart,
			ioTime:    as.IOTime,
			finish:    as.Finish,
			activePos: -1,
			view: core.AppView{
				ID:            a.ID,
				Nodes:         a.Nodes,
				Release:       a.Release,
				Phase:         core.Computing,
				RemVolume:     as.RemVolume,
				Started:       as.Started,
				LastIOEnd:     as.LastIOEnd,
				PendingSince:  as.PendingSince,
				CreditedWork:  as.CreditedWork,
				CreditedIdeal: as.CreditedIdeal,
			},
		}
		st.cand = decide.Member{View: &st.view, BW: &st.bw, Key: i, Owner: st}
		switch as.Phase {
		case PhaseNotReleased, PhaseComputing, PhaseRequesting:
			switch as.Phase {
			case PhaseNotReleased:
				st.phase = notReleased
			case PhaseComputing:
				st.phase = computing
			default:
				st.phase = requesting
			}
			if st.phase != notReleased && st.idx >= len(a.Instances) {
				return nil, fmt.Errorf("sim: app %d %s at instance %d of %d",
					a.ID, as.Phase, st.idx, len(a.Instances))
			}
			if as.Until < 0 || math.IsNaN(as.Until) {
				return nil, fmt.Errorf("sim: app %d has deadline %g", a.ID, as.Until)
			}
			// A deadline at or before the snapshot instant is legal for
			// externally built snapshots (a daemon view whose compute
			// phase should already have ended); it fires at the first
			// resumed event instant.
			st.timer = s.eng.At(as.Until, func() { s.due = append(s.due, st) })
			s.unfinished++
		case PhaseIO:
			if st.idx >= len(a.Instances) {
				return nil, fmt.Errorf("sim: app %d io at instance %d of %d",
					a.ID, st.idx, len(a.Instances))
			}
			st.phase = doingIO
			st.until = math.Inf(1)
			if st.bw > 0 {
				st.view.Phase = core.Transferring
			} else {
				st.view.Phase = core.Pending
			}
			st.timer = s.eng.Timer(func() { s.due = append(s.due, st) })
			s.unfinished++
		case PhaseFinished:
			st.phase = finished
			st.view.Phase = core.Finished
			st.until = math.Inf(1)
			st.timer = s.eng.Timer(func() { s.due = append(s.due, st) })
		default:
			return nil, fmt.Errorf("sim: app %d has unknown phase %q", a.ID, as.Phase)
		}
	}

	// Rebuild the membership sets in index order. The sets themselves
	// are unordered; rebuilding in index order just keeps the kernel's
	// version bump count deterministic and the first sorted-view
	// materialization cheap (already sorted input).
	for i := range s.apps {
		st := &s.apps[i]
		if st.phase != doingIO {
			continue
		}
		if st.bw > 0 {
			s.activeAdd(st)
		}
		if st.view.RemVolume > volEps {
			s.k.Add(&st.cand)
		} else if st.bw == 0 {
			// Entered I/O at or below the allocator's threshold: completes
			// at the next event instant, exactly as captured.
			s.zeroPending = append(s.zeroPending, st)
		}
	}
	if snap.BB != nil {
		if s.buffer == nil {
			return nil, fmt.Errorf("sim: snapshot has burst-buffer state but config disables UseBB")
		}
		s.buffer.Restore(snap.BB.LevelGiB, snap.BB.PeakGiB, snap.BB.FullTimeS)
	} else if s.buffer != nil {
		return nil, fmt.Errorf("sim: config sets UseBB but snapshot has no burst-buffer state")
	}
	// Rebuilding the candidate set bumped the kernel's version from zero;
	// Restore jumps it to the captured value so resumed trace records stay
	// continuous. Restoring a live memo under RedecideOnResume would defeat
	// the forced round: a Memoizable policy's re-decision (possibly a
	// *different* policy than the one that decided) would be skipped
	// against the incumbent's memo. Dropping it is harmless for
	// same-policy forecasts — re-deciding over unchanged inputs reproduces
	// identical grants — and faithful resumes never set RedecideOnResume,
	// so bit-identity is untouched.
	s.k.Restore(decide.State{
		Counts: decide.Counts{
			Decisions:  uint64(snap.Decisions),
			Skipped:    uint64(snap.Skipped),
			Memo:       uint64(snap.SkippedMemo),
			Saturating: uint64(snap.SkippedSaturating),
			Single:     uint64(snap.SkippedSingleFullGrant),
		},
		Version:   snap.CandVersion,
		MemoValid: snap.MemoValid && !snap.RedecideOnResume,
		MemoCap:   core.Capacity{TotalBW: snap.MemoTotalBW, NodeBW: snap.MemoNodeBW},
	})
	return s, nil
}
