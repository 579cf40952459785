package cluster

import "repro/internal/core"

// schedServer is the global scheduler of the modified IOR benchmark: "one
// separate thread acts as the scheduler and receives I/O requests for all
// groups". Requests are processed serially (ProcTime each); replies travel
// back with ReqLatency. In AlwaysGrant mode it approves every request
// without scheduling, which is how the paper isolates the machinery's
// overhead (Figure 14); in Scheduled mode it runs a core policy and sends
// bandwidth grants.
type schedServer struct {
	r *runner

	busyUntil float64
	requests  int
	decisions int

	// nextWake is the time of the earliest scheduled self-wake (for
	// Waker policies such as core.Timeout); zero when none is pending.
	nextWake float64

	// Per-decision scratch, reused across the run: candidate views and
	// their owners, the policy's allocation buffers, and a round counter
	// replacing the per-decision grant map.
	views []*core.AppView
	cands []*appRun
	scr   core.Scratch
	round uint64

	// byID resolves a grant's application in O(1); built once on the
	// first decision, after the runner's app list is complete.
	byID map[int]*appRun
}

// serve enqueues fn behind the server's serialized processing.
func (s *schedServer) serve(fn func()) {
	now := s.r.eng.Now()
	start := s.busyUntil
	if now > start {
		start = now
	}
	s.busyUntil = start + s.r.cfg.ProcTime
	s.r.eng.At(s.busyUntil, fn)
}

// request handles an application's I/O request arrival.
func (s *schedServer) request(a *appRun) {
	s.requests++
	iter := a.iter
	s.serve(func() {
		if s.r.cfg.Mode == AlwaysGrant {
			// Approve unconditionally; contention is resolved by the
			// file system's fair sharing.
			s.r.messages++
			s.r.eng.After(s.r.msgDelay(s.r.cfg.ReqLatency), func() { a.grantArrived(iter, 0, true) })
			return
		}
		s.decide()
	})
}

// transferDone handles a completion notification: freed bandwidth may be
// re-granted to stalled applications.
func (s *schedServer) transferDone() {
	if s.r.cfg.Mode == AlwaysGrant {
		return
	}
	s.serve(s.decide)
}

// decide runs the scheduling policy over the current application states
// and sends (possibly zero) bandwidth grants to every application that
// wants I/O.
//
// Unlike the simulator and the daemon, the emulator does not run on the
// decision kernel (internal/decide) and invokes the policy at every
// decision point. A grant reaches its application only after ReqLatency
// of message delay, so the views are not mutated at decision time: the
// memo rule has no apply point to key the memo on, and skipping would
// also remove exactly the per-request scheduler overhead Figures 14–16
// measure.
func (s *schedServer) decide() {
	r := s.r
	r.pfs.advance()
	views, cands := s.views[:0], s.cands[:0]
	for _, a := range r.apps {
		if a.view.WantsIO() {
			views = append(views, &a.view)
			cands = append(cands, a)
		}
	}
	s.views, s.cands = views, cands
	if len(views) == 0 {
		return
	}
	s.decisions++
	cap := core.Capacity{TotalBW: r.pfs.capacity(), NodeBW: r.p.NodeBW}
	grants := core.AllocateWith(r.cfg.Policy, &s.scr, r.eng.Now(), views, cap)
	s.round++
	if s.byID == nil {
		s.byID = make(map[int]*appRun, len(r.apps))
		for _, a := range r.apps {
			s.byID[a.cfg.ID] = a
		}
	}
	for _, g := range grants {
		if a := s.byID[g.AppID]; a != nil {
			a.grantRound, a.grantBW = s.round, g.BW
		}
	}
	for _, a := range cands {
		a := a
		iter := a.iter
		bw := 0.0
		if a.grantRound == s.round {
			bw = a.grantBW
		}
		r.messages++
		r.eng.After(r.msgDelay(r.cfg.ReqLatency), func() { a.grantArrived(iter, bw, false) })
	}
	s.armWake(views)
}

// armWake schedules the policy's next self-chosen decision point, if it
// wants one and none earlier is already pending.
func (s *schedServer) armWake(views []*core.AppView) {
	w, ok := s.r.cfg.Policy.(core.Waker)
	if !ok {
		return
	}
	now := s.r.eng.Now()
	wake, ok := w.NextWake(now, views)
	if !ok || wake <= now {
		return
	}
	if s.nextWake > now && s.nextWake <= wake {
		return // an earlier wake is already armed
	}
	s.nextWake = wake
	s.r.eng.At(wake, func() {
		s.nextWake = 0
		s.serve(s.decide)
	})
}
