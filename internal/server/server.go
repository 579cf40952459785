package server

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/decide"
	"repro/internal/dectrace"
	"repro/internal/health"
	"repro/internal/telemetry"
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
// Decision rounds run on the same kernel as the simulator
// (internal/decide): the candidate set is maintained incrementally as
// messages arrive instead of rescanning all sessions, policy invocations
// run out of reusable core.Scratch buffers, and decision rounds that are
// provably redundant under the policy's declared capabilities
// (Memoizable, Saturating, SingleFullGrant) are resolved without invoking
// the policy at all. A steady-state round — a progress report that
// changes no discrete scheduler-visible state — therefore allocates
// nothing and pushes nothing.
// Locking is split into three domains so connection lifecycle traffic
// does not serialize behind allocation rounds:
//
//   - lifeMu guards the listener and the live-connection set (shutdown
//     bookkeeping); closed is an atomic flag readable from any domain.
//   - reg, the sharded session registry (per-shard RWMutex), owns app-ID
//     → session membership: handshakes and disconnects touch only their
//     shard.
//   - mu, the allocation-round lock, owns the decision kernel (candidate
//     set, memo, counters), the wake timer and every session's
//     scheduler-visible state. Decision rounds stay single-threaded (and
//     allocation-free) under it, and enqueue their grant pushes under it,
//     which pins each session's wire order to the round order.
//
// Ordering: shard locks may be acquired while holding mu (Metrics,
// Snapshot); mu is never acquired while holding a shard lock — the
// kernel resolves grant targets within its own candidate set instead of
// reaching into the registry. lifeMu nests with neither.
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

	// k is the decision kernel; its candidate set holds the sessions
	// whose view currently wants I/O, keyed by application ID.
	k *decide.Kernel
	// kind names what triggered the current round, for trace records.
	kind string

	// wake re-triggers allocation at a Waker policy's chosen time (e.g.
	// core.Timeout promoting expired stalls). The timer is created once
	// and re-armed with Reset; wakeArmed gates the callback so a timer
	// disarmed after the candidate set emptied cannot fire a spurious
	// round, and wakeAt dedupes re-arms at an unchanged target.
	wake      *time.Timer
	wakeArmed bool
	wakeAt    float64

	// Operational counters (see Metrics). rounds, decisions and skipped
	// copy the kernel's counters after every round.
	rounds    uint64
	decisions uint64
	skipped   uint64
	pushes    uint64

	// Advisor bookkeeping (see NoteForecast and SetPolicy).
	forecasts    uint64
	switches     uint64
	lastForecast float64
	hasForecast  bool

	// tel mirrors cfg.Telemetry; the three histograms are resolved once
	// at construction so the hot path never takes the probe's histogram
	// lock. All nil when telemetry is disabled.
	tel       *telemetry.Probe
	roundHist *telemetry.Histogram // full round: decide + enqueue + arm
	pushHist  *telemetry.Histogram // grant enqueue → socket write completed
	applyHist *telemetry.Histogram // message arrival → grants enqueued
	health    *health.Monitor      // resolved once in New; nil disables
}

// capacity is the daemon's constant allocation capacity.
func (s *Server) capacity() core.Capacity {
	return core.Capacity{TotalBW: s.cfg.TotalBW, NodeBW: s.cfg.NodeBW}
}

// session is one connected application.
type session struct {
	conn net.Conn
	view core.AppView
	// bw is the last decided grant, and the last one pushed: the kernel
	// reports only changed verdicts (Granted), so unchanged ones are
	// never repeated — which keeps one chatty application from making
	// the daemon spam bw=0 grants to every stalled peer on every round.
	// A request sets it to NaN, which no verdict equals, so the request
	// is always answered once, even with a zero.
	bw float64
	// cand is the session's record in the kernel's candidate set.
	cand decide.Member

	// profile is the phase plan announced in the hello (may be empty);
	// instance counts the I/O phases completed so far, so profile[instance]
	// is the current phase. Together they make the session's remaining
	// work reconstructible for the digital twin (see Server.Snapshot).
	profile  []PhaseSpec
	instance int

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
	}
	s.k = decide.New(decide.Config{
		Policy:    cfg.Policy,
		Hooks:     (*roundHooks)(s),
		Trace:     cfg.DecisionTrace,
		Telemetry: cfg.Telemetry,
		Health:    cfg.Health,
	})
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
	c := s.k.Counts()
	return Metrics{
		Policy:                 s.cfg.Policy.Name(),
		Sessions:               s.reg.count(),
		Candidates:             s.k.Len(),
		Rounds:                 s.rounds,
		Decisions:              s.decisions,
		Skipped:                s.skipped,
		SkippedMemo:            c.Memo,
		SkippedSaturating:      c.Saturating,
		SkippedSingleFullGrant: c.Single,
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
	sess.cand = decide.Member{View: &sess.view, BW: &sess.bw, Key: msg.AppID, Owner: sess}

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
		sess.bw = math.NaN() // answer the request, even with a zero
		// The request changed discrete scheduler-visible state whether or
		// not the session was already a candidate; Add records both.
		s.k.Add(&sess.cand)
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
		// round lock) to the round's grants enqueued into the outboxes.
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
	s.k.Remove(&sess.cand)
}

// finish deregisters a session, rebalances the survivors and drains the
// session's outbox so a final error message still reaches the client.
func (s *Server) finish(sess *session) {
	if s.reg.removeIf(sess.view.ID, sess) {
		s.logf("app %d left", sess.view.ID)
	}
	s.mu.Lock()
	s.k.Remove(&sess.cand)
	s.roundLocked("leave")
	s.mu.Unlock()
	sess.closeOutbox()
}

// --- decision rounds --------------------------------------------------------

// roundLocked resolves the decision point for the current state (the
// kernel calls back into Granted, which enqueues the grant pushes), arms
// or disarms the policy's wake timer and runs the kernel's observation
// pass. kind names what triggered the round (the client message type,
// "hello", "leave", "wake" or "policy") for the decision trace. Callers
// hold s.mu.
//
//iosched:allocfree
func (s *Server) roundLocked(kind string) {
	var t0 time.Time
	if s.tel != nil {
		t0 = time.Now()
	}
	now, cap := s.now(), s.capacity()
	s.kind = kind
	s.k.Decide(now, cap)
	c := s.k.Counts()
	s.decisions, s.skipped, s.rounds = c.Decisions, c.Skipped, c.Decisions+c.Skipped
	s.armWakeLocked(now)
	if s.tel != nil {
		s.roundHist.ObserveDuration(time.Since(t0))
	}
	s.k.Observe(now, cap, 0)
}

// roundHooks is the Server's side of the decision kernel (decide.Hooks),
// kept off the Server's exported method set.
type roundHooks Server

// Granted pushes the session's changed verdict. Callers hold s.mu.
//
//iosched:allocfree
func (h *roundHooks) Granted(m *decide.Member) {
	s := (*Server)(h)
	sess := m.Owner.(*session)
	sess.seq++
	s.pushes++
	sess.enqueue(Message{Type: TypeGrant, AppID: sess.view.ID, BW: sess.bw, Seq: sess.seq})
}

// Kind names the current round's trigger.
func (h *roundHooks) Kind() string { return h.kind }

// --- wake timer -------------------------------------------------------------

// armWakeLocked (re)arms a Waker policy's self-wake timer, or disarms it
// when the policy wants no wake — in particular when the candidate set is
// empty (a wake without candidates could only fire a spurious round).
// Callers hold s.mu.
//
//iosched:allocfree
func (s *Server) armWakeLocked(now float64) {
	if s.closed.Load() {
		return
	}
	wake, want := s.k.NextWake(now)
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
