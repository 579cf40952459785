package server

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/xsort"
)

// Config describes the scheduler daemon.
type Config struct {
	// Policy decides bandwidth sharing (e.g. core.MaxSysEff()).
	Policy core.Scheduler
	// TotalBW and NodeBW are the machine's B and b.
	TotalBW float64
	NodeBW  float64
	// Logger receives connection-level diagnostics; nil disables logging.
	Logger *log.Logger
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
	// DecisionTrace, when non-nil, receives one dectrace.Record per
	// decision round, built and observed under the server's state lock —
	// the sink must be fast, concurrency-safe and must not block (see
	// docs/tracing.md). Nil keeps the steady round allocation-free.
	DecisionTrace dectrace.Sink
	// Telemetry, when non-nil, collects live time series and latency
	// histograms: the congestion signals are sampled after every
	// allocation round (under the probe's MinInterval gate), and the
	// round, grant-push and decision-to-apply latencies are recorded into
	// the probe's histograms (see docs/observability.md). Nil keeps the
	// steady round allocation-free; with a bounded probe (MaxPoints > 0)
	// the enabled steady round is allocation-free too, pinned by
	// TestSteadyRoundTelemetryAllocationFree.
	Telemetry *telemetry.Probe
	// Health, when non-nil, feeds every allocation round's congestion
	// signals to the anomaly detectors (see docs/observability.md,
	// layer 5). Unlike Telemetry the monitor is never sampled: it
	// observes every round, so the firing sequence matches the
	// simulator's for equivalent histories
	// (TestDaemonHealthMatchesSimulator). Nil keeps the steady round
	// allocation-free; so does an enabled monitor in steady state,
	// pinned by TestSteadyRoundHealthAllocationFree.
	Health *health.Monitor
}

// Server is the global I/O scheduler daemon. Create with New, start with
// Serve (or let ListenAndServe create the listener), stop with Close.
//
// The allocation path mirrors the simulator's hot loop (internal/sim): the
// candidate set is maintained incrementally as messages arrive instead of
// rescanning all sessions, policy invocations run out of reusable
// core.Scratch buffers, and decision rounds that are provably redundant
// under the policy's declared capabilities (Memoizable, Saturating,
// SingleFullGrant) are resolved without invoking the policy at all. A
// steady-state round — a progress report that changes no discrete
// scheduler-visible state — therefore allocates nothing and pushes
// nothing.
// Locking is split into three domains so connection lifecycle traffic
// does not serialize behind allocation rounds:
//
//   - lifeMu guards the listener and the live-connection set (shutdown
//     bookkeeping); closed is an atomic flag readable from any domain.
//   - reg, the sharded session registry (per-shard RWMutex), owns app-ID
//     → session membership: handshakes and disconnects touch only their
//     shard.
//   - mu, the allocation-round lock, owns the candidate set, the
//     decision memo, the push batch, the wake timer, the counters and
//     every session's scheduler-visible state. Decision rounds stay
//     single-threaded (and allocation-free) under it.
//
// Ordering: shard locks may be acquired while holding mu (Metrics,
// Snapshot); mu is never acquired while holding a shard lock — the
// decision round resolves grant targets by binary search over the
// ID-sorted candidate slice instead of reaching into the registry.
// lifeMu nests with neither.
type Server struct {
	cfg   Config
	start time.Time

	lifeMu sync.Mutex
	// conns tracks every live connection, including those still in the
	// hello handshake, so Close can cut stalled reads immediately.
	conns  map[net.Conn]struct{}
	ln     net.Listener
	closed atomic.Bool
	wg     sync.WaitGroup

	// reg is the session registry, sharded by app-ID hash.
	reg registry

	mu sync.Mutex

	// clock returns seconds since start; split from cfg.Now so tests can
	// drive the decision path with exact float instants.
	clock func() float64

	// candidates holds the sessions whose view currently wants I/O,
	// ascending by application ID. candVersion bumps on every membership
	// change and on every discrete view-state change (the Memoizable
	// contract of core/allocate.go, including the rule that applying a
	// grant which flips Started/Phase/PendingSince invalidates the memo).
	candidates  []*session
	candVersion uint64
	// want caches the candidate views slice handed to the policy; it is
	// rebuilt only when wantVersion falls behind candVersion.
	want        []*core.AppView
	wantVersion uint64
	wantValid   bool

	// caps is the policy's capability set, resolved once; scr holds the
	// policy's reusable allocation buffers.
	caps core.EngineCaps
	scr  core.Scratch

	// Decision-skipping state: the candidate-set version of the last
	// applied decision (capacity is constant for a daemon). decided is
	// false until one happened.
	decided        bool
	decidedVersion uint64
	round          uint64 // current decision round, for grantRound marking

	// batch collects one round's grant pushes; it is flushed to the
	// per-session outboxes before the state lock is released, so the
	// per-session wire order is the round order.
	batch []pushGrant

	// wake re-triggers allocation at a Waker policy's chosen time (e.g.
	// core.Timeout promoting expired stalls). The timer is created once
	// and re-armed with Reset; wakeArmed gates the callback so a timer
	// disarmed after the candidate set emptied cannot fire a spurious
	// round, and wakeAt dedupes re-arms at an unchanged target.
	wake      *time.Timer
	wakeArmed bool
	wakeAt    float64

	// Operational counters (see Metrics).
	rounds    uint64
	decisions uint64
	skipped   uint64
	pushes    uint64

	// Per-reason skip breakdown; the three sum to skipped.
	skippedMemo       uint64
	skippedSaturating uint64
	skippedSingle     uint64

	// Advisor bookkeeping (see NoteForecast and SetPolicy).
	forecasts    uint64
	switches     uint64
	lastForecast float64
	hasForecast  bool

	// tel mirrors cfg.Telemetry; the three histograms are resolved once
	// at construction so the hot path never takes the probe's histogram
	// lock. All nil when telemetry is disabled.
	tel       *telemetry.Probe
	roundHist *telemetry.Histogram // full round: decide + arm + flush
	pushHist  *telemetry.Histogram // grant enqueue → socket write completed
	applyHist *telemetry.Histogram // message arrival → grants flushed
	health    *health.Monitor      // resolved once in New; nil disables
}

// session is one connected application.
type session struct {
	conn net.Conn
	view core.AppView
	bw   float64 // last decided grant
	cand bool    // membership in Server.candidates

	// profile is the phase plan announced in the hello (may be empty);
	// instance counts the I/O phases completed so far, so profile[instance]
	// is the current phase. Together they make the session's remaining
	// work reconstructible for the digital twin (see Server.Snapshot).
	profile  []PhaseSpec
	instance int

	// pushedBW is the last grant value enqueued to this session;
	// pushedValid is false until the first push after a request (or
	// registration), so a request's verdict — even a zero — is always
	// answered once, and unchanged verdicts are never repeated. This is
	// what keeps one chatty application from making the daemon spam
	// bw=0 grants to every stalled peer on every round.
	pushedBW    float64
	pushedValid bool

	// seq is the session's monotone grant sequence (see Message.Seq).
	seq uint64

	// grantRound/grantBW communicate one decision's grant without a
	// per-round map: valid when grantRound equals the server's round.
	grantRound uint64
	grantBW    float64

	// The outbox decouples scheduling from delivery: rounds enqueue
	// messages under the server lock and a per-session writer goroutine
	// drains them to the connection, so one slow client can neither
	// stall scheduling nor delay pushes to its peers.
	outMu   sync.Mutex
	outCond *sync.Cond
	outbox  []outMsg
	closing bool
	outDone chan struct{}

	// pushHist, when non-nil, receives the enqueue→written latency of
	// every grant push (Config.Telemetry's grant-push histogram).
	pushHist *telemetry.Histogram
}

// outMsg is one outbox entry: the message plus, when grant-push
// telemetry is enabled, its enqueue instant (UnixNano; 0 = untimed).
type outMsg struct {
	msg Message
	enq int64
}

// enqueue appends a message to the session's outbox. Grant pushes are
// timestamped when telemetry is enabled so the writer goroutine can
// record how long the grant sat behind its peers on the wire.
func (sess *session) enqueue(msg Message) {
	var enq int64
	if sess.pushHist != nil && msg.Type == TypeGrant {
		enq = time.Now().UnixNano()
	}
	sess.outMu.Lock()
	if !sess.closing {
		sess.outbox = append(sess.outbox, outMsg{msg: msg, enq: enq})
		sess.outCond.Signal()
	}
	sess.outMu.Unlock()
}

// closeOutbox marks the outbox closed and waits for the writer to drain
// what was already enqueued (or to die on a write error).
func (sess *session) closeOutbox() {
	sess.outMu.Lock()
	sess.closing = true
	sess.outCond.Signal()
	sess.outMu.Unlock()
	<-sess.outDone
}

// New builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.Policy == nil {
		return nil, errors.New("server: nil policy")
	}
	if cfg.TotalBW <= 0 || cfg.NodeBW <= 0 {
		return nil, fmt.Errorf("server: bad capacities (B=%g, b=%g)", cfg.TotalBW, cfg.NodeBW)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:   cfg,
		start: cfg.Now(),
		conns: make(map[net.Conn]struct{}),
		caps:  core.CapsOf(cfg.Policy),
	}
	s.reg.init()
	s.clock = func() float64 { return cfg.Now().Sub(s.start).Seconds() }
	if cfg.Telemetry != nil {
		s.tel = cfg.Telemetry
		s.roundHist = s.tel.Histogram("ioschedd_round_duration_seconds")
		s.pushHist = s.tel.Histogram("ioschedd_grant_push_delay_seconds")
		s.applyHist = s.tel.Histogram("ioschedd_decision_apply_seconds")
	}
	s.health = cfg.Health
	return s, nil
}

// now returns seconds since the server started; it is the time base for
// the policy's efficiency bookkeeping.
func (s *Server) now() float64 { return s.clock() }

// ListenAndServe listens on addr ("host:port") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// helloTimeout bounds how long an accepted connection may take to send
// its hello before the server gives up on it.
const helloTimeout = 10 * time.Second

// Serve accepts connections on ln until Close. Each connection is one
// application. Hellos are read concurrently (a slow client cannot stall
// the accept loop), but registration settles in accept order through a
// chain of tickets: each handshake waits for its predecessor's to
// finish before registering, so the policy's notion of "who came first"
// — and which of two connections claiming the same app ID is the
// duplicate — is the connection order, not goroutine scheduling.
func (s *Server) Serve(ln net.Listener) error {
	s.lifeMu.Lock()
	if s.closed.Load() {
		s.lifeMu.Unlock()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.lifeMu.Unlock()
	var prev chan struct{}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		done := make(chan struct{})
		s.wg.Add(1)
		go func(prev, done chan struct{}) {
			defer s.wg.Done()
			s.handle(conn, prev, done)
		}(prev, done)
		prev = done
	}
}

// trackConn registers a live connection for Close; it reports false when
// the server is already shutting down.
func (s *Server) trackConn(conn net.Conn) bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.lifeMu.Lock()
	delete(s.conns, conn)
	s.lifeMu.Unlock()
}

// Addr returns the listen address (useful with ":0" in tests).
func (s *Server) Addr() net.Addr {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, disconnects all applications and waits for the
// connection handlers to drain.
func (s *Server) Close() error {
	s.lifeMu.Lock()
	if s.closed.Swap(true) {
		s.lifeMu.Unlock()
		return nil
	}
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.lifeMu.Unlock()
	s.mu.Lock()
	s.disarmWakeLocked()
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Decisions returns the number of policy invocations performed.
func (s *Server) Decisions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decisions
}

// Metrics is a snapshot of the daemon's operational counters.
type Metrics struct {
	// Policy is the scheduling policy's report name.
	Policy string `json:"policy"`
	// Sessions is the number of registered applications; Candidates how
	// many of them currently want I/O.
	Sessions   int `json:"sessions"`
	Candidates int `json:"candidates"`
	// Rounds counts allocation rounds with a non-empty candidate set;
	// every round is either a Decision (the policy ran) or Skipped (the
	// engine proved the outcome without invoking it), so Rounds =
	// Decisions + Skipped and Rounds matches the per-message decision
	// count of the pre-capability daemon.
	Rounds    uint64 `json:"rounds"`
	Decisions uint64 `json:"decisions"`
	Skipped   uint64 `json:"skipped"`
	// SkippedMemo, SkippedSaturating and SkippedSingleFullGrant break
	// Skipped down by the capability that proved each skip sound
	// (core.SkipReason); the three always sum to Skipped.
	SkippedMemo            uint64 `json:"skipped_memo"`
	SkippedSaturating      uint64 `json:"skipped_saturating"`
	SkippedSingleFullGrant uint64 `json:"skipped_single_full_grant"`
	// GrantPushes counts grant messages enqueued to clients (duplicate
	// verdicts are suppressed and do not count).
	GrantPushes uint64 `json:"grant_pushes"`
	// UptimeSeconds is the server's age on its own clock.
	UptimeSeconds float64 `json:"uptime_s"`
	// ForecastsRun counts advisor forecasts recorded via NoteForecast;
	// PolicySwitches counts runtime policy changes applied via SetPolicy.
	ForecastsRun   uint64 `json:"forecasts_run"`
	PolicySwitches uint64 `json:"policy_switches"`
	// LastForecastAgeS is the age of the most recent forecast on the
	// server's clock, or -1 when none has run yet.
	LastForecastAgeS float64 `json:"last_forecast_age_s"`
	// HealthState is the aggregate health verdict ("ok", "degraded",
	// "critical") and Anomalies the lifetime count of detector firing
	// transitions; empty/0 when no health monitor is attached.
	HealthState string `json:"health_state,omitempty"`
	Anomalies   uint64 `json:"anomalies,omitempty"`
}

// Metrics returns a consistent snapshot of the operational counters.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	age := -1.0
	if s.hasForecast {
		age = s.now() - s.lastForecast
	}
	healthState := ""
	var anomalies uint64
	if s.health != nil {
		healthState = s.health.State().String()
		anomalies = s.health.Anomalies()
	}
	return Metrics{
		Policy:                 s.cfg.Policy.Name(),
		Sessions:               s.reg.count(),
		Candidates:             len(s.candidates),
		Rounds:                 s.rounds,
		Decisions:              s.decisions,
		Skipped:                s.skipped,
		SkippedMemo:            s.skippedMemo,
		SkippedSaturating:      s.skippedSaturating,
		SkippedSingleFullGrant: s.skippedSingle,
		GrantPushes:            s.pushes,
		UptimeSeconds:          s.now(),
		ForecastsRun:           s.forecasts,
		PolicySwitches:         s.switches,
		LastForecastAgeS:       age,
		HealthState:            healthState,
		Anomalies:              anomalies,
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// handle runs one connection: the hello handshake (registered in accept
// order through the prev/done ticket chain), then the application's
// request/progress/complete message stream. done is closed exactly once,
// after prev closed and this connection's registration attempt settled,
// so a ticket implies every earlier connection has registered or failed.
func (s *Server) handle(conn net.Conn, prev, done chan struct{}) {
	defer conn.Close()
	if !s.trackConn(conn) {
		settle(prev, done)
		return
	}
	defer s.untrackConn(conn)

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	conn.SetReadDeadline(time.Now().Add(helloTimeout)) //nolint:errcheck // net.Conn deadline
	msg, err := readHello(sc)
	// Register between the predecessor's ticket and our own: this is
	// what pins registration to accept order.
	if prev != nil {
		<-prev
	}
	var sess *session
	if err == nil {
		sess, err = s.register(conn, msg)
	}
	close(done)
	if err != nil {
		s.replyError(conn, err)
		return
	}
	defer s.finish(sess)
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // net.Conn deadline

	for sc.Scan() {
		msg, err := decode(sc.Bytes())
		if err != nil {
			s.sessionError(sess, err)
			return
		}
		if err := s.dispatch(sess, msg); err != nil {
			if errors.Is(err, errBye) {
				return
			}
			s.sessionError(sess, err)
			return
		}
	}
	if err := sc.Err(); err != nil {
		s.logf("app %d: read: %v", sess.view.ID, err)
	}
}

// settle closes this connection's ticket after its predecessor's.
func settle(prev, done chan struct{}) {
	if prev != nil {
		<-prev
	}
	close(done)
}

var errBye = errors.New("server: client said bye")

// readHello reads and decodes the connection's first message.
func readHello(sc *bufio.Scanner) (*Message, error) {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("server: reading hello: %w", err)
		}
		return nil, errors.New("server: connection closed before hello")
	}
	return decode(sc.Bytes())
}

// register validates the hello, installs the session, starts its writer,
// acknowledges with a welcome and runs a decision round (an application
// joining is a scheduler-visible event, exactly like a release in the
// simulator).
func (s *Server) register(conn net.Conn, msg *Message) (*session, error) {
	if msg.Type != TypeHello {
		return nil, fmt.Errorf("server: first message is %q, want hello", msg.Type)
	}
	sess := &session{
		conn: conn,
		view: core.AppView{
			ID:      msg.AppID,
			Nodes:   msg.Nodes,
			Phase:   core.Computing,
			Release: 0, // set under the lock below
		},
		profile:  append([]PhaseSpec(nil), msg.Profile...),
		outDone:  make(chan struct{}),
		pushHist: s.pushHist,
	}
	sess.outCond = sync.NewCond(&sess.outMu)

	// Registry first, round lock second (never the reverse): the insert
	// claims the app ID in its shard, then the allocation round below
	// makes the session scheduler-visible. A Close racing this window
	// already owns the connection (trackConn) and cuts it, so the
	// handler's read loop unwinds through finish and deregisters.
	if s.closed.Load() {
		return nil, errors.New("server: shutting down")
	}
	if !s.reg.insert(msg.AppID, sess) {
		return nil, fmt.Errorf("server: app id %d already connected", msg.AppID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.view.Release = s.now()
	sess.view.LastIOEnd = sess.view.Release
	s.wg.Add(1)
	go s.writeLoop(sess)
	sess.enqueue(Message{Type: TypeWelcome, AppID: msg.AppID})
	s.logf("app %d joined (%d nodes)", msg.AppID, msg.Nodes)
	s.roundLocked("hello")
	return sess, nil
}

// writeLoop is the session's delivery goroutine: it drains the outbox to
// the connection in enqueue order, which makes the session's grant
// sequence monotone on the wire.
func (s *Server) writeLoop(sess *session) {
	defer s.wg.Done()
	defer close(sess.outDone)
	var buf []outMsg
	for {
		sess.outMu.Lock()
		for len(sess.outbox) == 0 && !sess.closing {
			sess.outCond.Wait()
		}
		if len(sess.outbox) == 0 {
			sess.outMu.Unlock()
			return
		}
		buf, sess.outbox = sess.outbox, buf[:0]
		sess.outMu.Unlock()
		for i := range buf {
			b, err := encode(&buf[i].msg)
			if err != nil {
				s.logf("app %d: encode: %v", sess.view.ID, err)
				continue
			}
			if _, err := sess.conn.Write(b); err != nil {
				s.logf("app %d: push: %v", sess.view.ID, err)
				return
			}
			if sess.pushHist != nil && buf[i].enq != 0 {
				sess.pushHist.Observe(float64(time.Now().UnixNano()-buf[i].enq) / 1e9)
			}
		}
	}
}

// sessionError pushes a protocol error through the session's outbox so it
// serializes behind any pending grants; the handler's finish drains it
// before the connection closes.
func (s *Server) sessionError(sess *session, cause error) {
	sess.enqueue(Message{Type: TypeError, Err: cause.Error()})
	s.logf("app %d: protocol error: %v", sess.view.ID, cause)
}

// dispatch handles one post-hello message and runs a decision round.
func (s *Server) dispatch(sess *session, msg *Message) error {
	if msg.AppID != 0 && msg.AppID != sess.view.ID {
		return fmt.Errorf("server: message for app %d on app %d's connection", msg.AppID, sess.view.ID)
	}
	var t0 time.Time
	if s.tel != nil {
		t0 = time.Now()
	}
	s.mu.Lock()
	kind := msg.Type
	switch msg.Type {
	case TypeRequest:
		sess.view.CreditedWork += msg.Work
		sess.view.CreditedIdeal += msg.IdealTime
		sess.view.Phase = core.Pending
		sess.view.RemVolume = msg.Volume
		sess.view.Started = false
		sess.view.PendingSince = s.now()
		// A fresh request must always be answered, even with a zero.
		sess.pushedValid = false
		s.candAddLocked(sess)
		// The request changed discrete scheduler-visible state whether or
		// not the session was already a candidate.
		s.candVersion++
	case TypeProgress:
		if sess.view.WantsIO() && msg.Volume < sess.view.RemVolume {
			sess.view.RemVolume = msg.Volume
			if sess.view.RemVolume <= 0 {
				// The transfer drained to zero through progress reports:
				// complete it instead of leaving a ghost Transferring
				// view with a stale LastIOEnd outside the candidate set.
				s.completeLocked(sess)
			}
		}
	case TypeComplete:
		s.completeLocked(sess)
	case TypeBye:
		s.mu.Unlock()
		return errBye
	case TypeHello:
		s.mu.Unlock()
		return errors.New("server: duplicate hello")
	default:
		s.mu.Unlock()
		return fmt.Errorf("server: unexpected %q from client", msg.Type)
	}
	s.roundLocked(kind)
	if s.tel != nil {
		// Decision-to-apply: message arrival (including the wait for the
		// round lock) to the round's grants flushed into the outboxes.
		s.applyHist.ObserveDuration(time.Since(t0))
	}
	s.mu.Unlock()
	return nil
}

// completeLocked finishes the session's current I/O phase. Callers hold
// s.mu.
func (s *Server) completeLocked(sess *session) {
	if sess.view.Phase == core.Pending || sess.view.Phase == core.Transferring {
		// One completed I/O phase ends one instance; a spurious complete
		// while computing must not advance the profile cursor.
		sess.instance++
	}
	sess.view.Phase = core.Computing
	sess.view.RemVolume = 0
	sess.view.Started = false
	sess.view.LastIOEnd = s.now()
	sess.bw = 0
	sess.pushedValid = false
	s.candRemoveLocked(sess)
}

// finish deregisters a session, rebalances the survivors and drains the
// session's outbox so a final error message still reaches the client.
func (s *Server) finish(sess *session) {
	if s.reg.removeIf(sess.view.ID, sess) {
		s.logf("app %d left", sess.view.ID)
	}
	s.mu.Lock()
	s.candRemoveLocked(sess)
	s.roundLocked("leave")
	s.mu.Unlock()
	sess.closeOutbox()
}

// --- incremental candidate tracking ----------------------------------------

func sessLess(a, b *session) bool { return a.view.ID < b.view.ID }

func (s *Server) candAddLocked(sess *session) {
	if sess.cand {
		return
	}
	sess.cand = true
	s.candidates = xsort.Insert(s.candidates, sess, sessLess)
	s.candVersion++
}

func (s *Server) candRemoveLocked(sess *session) {
	if !sess.cand {
		return
	}
	sess.cand = false
	s.candidates = xsort.Remove(s.candidates, sess, sessLess)
	s.candVersion++
}

// candByIDLocked returns the candidate session with the given app ID,
// or nil. It binary-searches the ID-sorted candidate slice: the
// decision round must not reach into the sharded registry (lock
// ordering forbids shard → mu nesting, and grants can only target
// candidates anyway) and must not allocate. Callers hold s.mu.
//
//iosched:allocfree
func (s *Server) candByIDLocked(id int) *session {
	lo, hi := 0, len(s.candidates)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.candidates[mid].view.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.candidates) && s.candidates[lo].view.ID == id {
		return s.candidates[lo]
	}
	return nil
}

// wantViewsLocked returns the candidate views in ID order, rebuilding the
// cached slice only when the candidate set changed.
//
//iosched:allocfree
func (s *Server) wantViewsLocked() []*core.AppView {
	if !s.wantValid || s.wantVersion != s.candVersion {
		s.want = s.want[:0]
		for _, sess := range s.candidates {
			s.want = append(s.want, &sess.view)
		}
		s.wantVersion = s.candVersion
		s.wantValid = true
	}
	return s.want
}

// --- decision rounds --------------------------------------------------------

// pushGrant is one outgoing grant with its target session.
type pushGrant struct {
	sess *session
	msg  Message
}

// roundLocked resolves the decision point for the current state, arms or
// disarms the policy's wake timer and flushes the round's push batch to
// the session outboxes. kind names what triggered the round (the client
// message type, "hello", "leave", "wake" or "policy") for the decision
// trace. Callers hold s.mu.
//
//iosched:allocfree
func (s *Server) roundLocked(kind string) {
	var t0 time.Time
	if s.tel != nil {
		t0 = time.Now()
	}
	now := s.now()
	s.decideLocked(now, kind)
	s.armWakeLocked(now)
	s.flushLocked()
	if s.tel != nil {
		s.roundHist.ObserveDuration(time.Since(t0))
		s.observeLocked(now)
	}
	// Health observes every round (never Due-sampled) so the detectors'
	// firing sequence is a deterministic function of the round history —
	// the same points the simulator's observeHealth feeds its monitor.
	if s.health != nil {
		s.health.Observe(s.livePointLocked(now))
	}
}

// observeLocked samples the congestion signals into the probe, walking
// the ID-sorted candidate set — the same signals, computed by the same
// telemetry.PointBuilder operations, as the simulator's capture site, so
// the two engines' series agree point for point on equivalent histories
// (TestDaemonTelemetryMatchesSimulator). Callers hold s.mu.
//
//iosched:allocfree
func (s *Server) observeLocked(now float64) {
	if s.tel == nil || !s.tel.Due(now) {
		return
	}
	s.tel.Record(s.livePointLocked(now))
	for _, id := range s.tel.TrackApps {
		if sess := s.reg.get(id); sess != nil {
			s.tel.RecordApp(id, now, 1/sess.view.Ratio(now))
		}
	}
}

// livePointLocked builds the current congestion sample. Callers hold
// s.mu.
//
//iosched:allocfree
func (s *Server) livePointLocked(now float64) telemetry.Point {
	var b telemetry.PointBuilder
	for _, sess := range s.candidates {
		b.Add(now, &sess.view, sess.bw, s.cfg.NodeBW)
	}
	return b.Finish(now, s.cfg.TotalBW, 0)
}

// decideLocked runs one allocation round: skip when the outcome is
// provably the previous one, apply the known uncongested outcome for
// saturating policies, or invoke the policy. Grant pushes for sessions
// whose bandwidth verdict changed are appended to s.batch.
//
//iosched:allocfree
func (s *Server) decideLocked(now float64, kind string) {
	if len(s.candidates) == 0 {
		return
	}
	s.rounds++
	cap := core.Capacity{TotalBW: s.cfg.TotalBW, NodeBW: s.cfg.NodeBW}

	// Memoizable skip: the policy's output is a pure function of the
	// candidate identities, their discrete state and the (constant)
	// capacity; none changed since the applied decision. Discrete changes
	// bump candVersion — including from inside applyGrantLocked, so a
	// decision that flips view state invalidates its own memo.
	if s.caps.Memoizable && s.decided && s.candVersion == s.decidedVersion {
		s.skipped++
		s.skippedMemo++
		if s.cfg.DecisionTrace != nil {
			// Memo skips omit apps and grants: both are the previous
			// record's, unchanged by construction.
			s.emitTraceLocked(core.SkipMemo, now, kind, cap, s.candVersion, nil, nil)
		}
		return
	}

	// Single-candidate fast path: a lone requester receives exactly
	// min(β·b, B) under every SingleFullGrant policy.
	if s.caps.SingleFullGrant && len(s.candidates) == 1 {
		sess := s.candidates[0]
		bw := float64(sess.view.Nodes) * cap.NodeBW
		if bw > cap.TotalBW {
			bw = cap.TotalBW
		}
		var apps []dectrace.AppRecord
		if s.cfg.DecisionTrace != nil {
			// Capture before applying: applyGrantLocked mutates the view.
			apps = dectrace.CaptureApps(nil, s.wantViewsLocked())
		}
		s.applyGrantLocked(sess, bw, now)
		s.skipped++
		s.skippedSingle++
		s.decided = true
		// Post-apply version is sound: the outcome depends only on the
		// candidate set, not on the fields applyGrantLocked changed.
		s.decidedVersion = s.candVersion
		if s.cfg.DecisionTrace != nil {
			s.emitTraceLocked(core.SkipSingleFullGrant, now, kind, cap, s.candVersion, apps,
				//iosched:allocfree-allow trace-enabled branch only: the GrantRecord slice is built under the DecisionTrace != nil gate
				[]dectrace.GrantRecord{{ID: sess.view.ID, BW: bw}})
		}
		return
	}

	// Saturating fast path: when total demand fits the capacity with a
	// margin that dwarfs greedy summation rounding, a Saturating policy
	// grants every candidate exactly β·b whatever its internal order.
	if s.caps.Saturating {
		demand := 0.0
		for _, sess := range s.candidates {
			demand += float64(sess.view.Nodes) * cap.NodeBW
		}
		if demand <= cap.TotalBW*(1-1e-9) {
			var apps []dectrace.AppRecord
			var grants []dectrace.GrantRecord
			if s.cfg.DecisionTrace != nil {
				want := s.wantViewsLocked() // candidate order
				apps = dectrace.CaptureApps(nil, want)
				grants = dectrace.CaptureFullGrants(nil, want, cap.NodeBW)
			}
			for _, sess := range s.candidates {
				s.applyGrantLocked(sess, float64(sess.view.Nodes)*cap.NodeBW, now)
			}
			s.skipped++
			s.skippedSaturating++
			s.decided = true
			s.decidedVersion = s.candVersion
			if s.cfg.DecisionTrace != nil {
				s.emitTraceLocked(core.SkipSaturating, now, kind, cap, s.candVersion, apps, grants)
			}
			return
		}
	}

	want := s.wantViewsLocked()
	// The decision is computed from the views as they are NOW; capture
	// the version before application, because applying the grants can
	// itself change discrete view state (bumping candVersion), and a memo
	// over the pre-application inputs must not survive that.
	ver := s.candVersion
	grants := core.AllocateWith(s.cfg.Policy, &s.scr, now, want, cap)
	s.decisions++
	if s.cfg.DecisionTrace != nil {
		// Views are still pre-application here; the apply loop below is
		// what mutates them.
		s.emitTraceLocked(core.SkipNone, now, kind, cap, ver,
			dectrace.CaptureApps(nil, want), dectrace.CaptureGrants(nil, grants))
	}
	s.round++
	for _, g := range grants {
		if sess := s.candByIDLocked(g.AppID); sess != nil {
			sess.grantRound = s.round
			sess.grantBW = g.BW
		}
	}
	for _, sess := range s.candidates {
		bw := 0.0
		if sess.grantRound == s.round {
			bw = sess.grantBW
		}
		s.applyGrantLocked(sess, bw, now)
	}
	s.decided = true
	s.decidedVersion = ver
}

// emitTraceLocked builds one decision record and hands it to the attached
// sink. Callers hold s.mu and pass pre-captured apps/grants (nil for memo
// skips). Counters in the record are post-round.
func (s *Server) emitTraceLocked(verdict core.SkipReason, now float64, kind string, cap core.Capacity, ver uint64, apps []dectrace.AppRecord, grants []dectrace.GrantRecord) {
	if s.cfg.DecisionTrace == nil {
		return
	}
	s.cfg.DecisionTrace.Observe(&dectrace.Record{
		Seq:         s.rounds,
		Time:        now,
		Kind:        kind,
		Policy:      s.cfg.Policy.Name(),
		Verdict:     verdict.String(),
		CandVersion: ver,
		TotalBW:     cap.TotalBW,
		NodeBW:      cap.NodeBW,
		Decisions:   int(s.decisions),
		Skipped:     int(s.skipped),
		Apps:        apps,
		Grants:      grants,
	})
}

// applyGrantLocked installs one session's bandwidth verdict, keeps the
// scheduler-visible phase in step, and enqueues a push when the verdict
// changed (or was never answered since the last request).
//
// Applying a decision can itself change discrete view state a Memoizable
// policy is allowed to read — Started flips true on a first grant, Phase
// toggles, a preemption restarts PendingSince. Each such change bumps
// candVersion so the memo over the pre-application inputs dies with it
// (the iosched-sim/3 rule shared with internal/sim).
//
//iosched:allocfree
func (s *Server) applyGrantLocked(sess *session, bw, now float64) {
	sess.bw = bw
	if bw > 0 {
		if !sess.view.Started || sess.view.Phase != core.Transferring {
			s.candVersion++
		}
		sess.view.Phase = core.Transferring
		sess.view.Started = true
	} else {
		if sess.view.Phase == core.Transferring {
			// Preempted: the stall clock restarts now.
			sess.view.PendingSince = now
			s.candVersion++
		}
		sess.view.Phase = core.Pending
	}
	if sess.pushedValid && bw == sess.pushedBW {
		return // unchanged verdict; don't spam the client
	}
	sess.pushedValid = true
	sess.pushedBW = bw
	sess.seq++
	s.pushes++
	s.batch = append(s.batch, pushGrant{
		sess: sess,
		msg:  Message{Type: TypeGrant, AppID: sess.view.ID, BW: bw, Seq: sess.seq},
	})
}

// flushLocked moves the round's push batch into the session outboxes.
// Enqueueing under s.mu pins each session's wire order to the round
// order; the actual writes happen in the per-session writer goroutines.
//
//iosched:allocfree
func (s *Server) flushLocked() {
	for i := range s.batch {
		s.batch[i].sess.enqueue(s.batch[i].msg)
		s.batch[i].sess = nil
	}
	s.batch = s.batch[:0]
}

// --- wake timer -------------------------------------------------------------

// armWakeLocked (re)arms the policy's self-wake timer, or disarms it when
// the candidate set is empty (a wake without candidates could only fire a
// spurious round). Callers hold s.mu.
//
//iosched:allocfree
func (s *Server) armWakeLocked(now float64) {
	if s.caps.Waker == nil || s.closed.Load() {
		return
	}
	if len(s.candidates) == 0 {
		//iosched:allocfree-allow inlined time.Timer.Stop panic-path string; unreachable once the timer exists
		s.disarmWakeLocked()
		return
	}
	wake, want := s.caps.Waker.NextWake(now, s.wantViewsLocked())
	if !want || wake <= now {
		//iosched:allocfree-allow inlined time.Timer.Stop panic-path string; unreachable once the timer exists
		s.disarmWakeLocked()
		return
	}
	if s.wakeArmed && s.wakeAt == wake {
		return // already armed at this target
	}
	d := time.Duration((wake - now) * float64(time.Second))
	if s.wake == nil {
		//iosched:allocfree-allow one-time timer construction; every later re-arm goes through Reset
		s.wake = time.AfterFunc(d, s.onWake)
	} else {
		//iosched:allocfree-allow inlined time.Timer.Stop panic-path string; unreachable once the timer exists
		s.wake.Stop()
		s.wake.Reset(d)
	}
	s.wakeArmed = true
	s.wakeAt = wake
}

// disarmWakeLocked stops the wake timer. A callback that already fired
// finds wakeArmed false and returns without a round. Callers hold s.mu.
func (s *Server) disarmWakeLocked() {
	if s.wake != nil {
		s.wake.Stop()
	}
	s.wakeArmed = false
}

// onWake is the wake timer's callback: one decision round, gated so a
// disarmed timer cannot fire a spurious one.
func (s *Server) onWake() {
	s.mu.Lock()
	if s.closed.Load() || !s.wakeArmed {
		s.mu.Unlock()
		return
	}
	s.wakeArmed = false
	s.roundLocked("wake")
	s.mu.Unlock()
}

// replyError answers a connection that has no session (hello failures)
// directly; registered sessions route errors through their outbox.
func (s *Server) replyError(conn net.Conn, cause error) {
	b, err := encode(&Message{Type: TypeError, Err: cause.Error()})
	if err == nil {
		conn.Write(b) //nolint:errcheck // best effort before close
	}
	s.logf("protocol error: %v", cause)
}
