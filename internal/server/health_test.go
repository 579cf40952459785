package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/health"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestSteadyRoundHealthAllocationFree pins the enabled-health half of
// the cost contract: with a monitor (and a bounded probe) attached, the
// steady-state round is still allocation-free. Detector transitions are
// the only allocating events, and a steady round by definition has
// none: the sustain windows (wall-clock seconds here) cannot elapse
// inside the measurement loop.
func TestSteadyRoundHealthAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  core.Scheduler
	}{
		{"memoized-fair-share", core.FairShare{}},
		{"full-MaxSysEff", core.MaxSysEff()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sessions = 32
			probe := &telemetry.Probe{MaxPoints: 64}
			mon := health.New(health.Config{
				SLOLatency: 0.5,
				SLOSource:  probe.Histogram("ioschedd_grant_push_delay_seconds"),
			})
			srv, sess := newDirectServerCfg(t, Config{
				Policy: tc.pol, TotalBW: 10, NodeBW: 1, Telemetry: probe, Health: mon,
			}, sessions, 1)
			req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
			for _, s := range sess {
				if err := srv.dispatch(s, req); err != nil {
					t.Fatal(err)
				}
			}
			noop := &Message{Type: TypeProgress, Volume: 1e9}
			for i := 0; i < 4; i++ {
				if err := srv.dispatch(sess[i], noop); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := srv.dispatch(sess[0], noop); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("health-enabled steady round allocates %.1f objects, want 0", allocs)
			}
			// The monitor actually observed the measured rounds: 32
			// congested single-node candidates over B=10 keep conditions
			// active even though nothing fires inside the test's lifetime.
			snap := mon.Snapshot()
			if snap.State != "ok" || snap.Anomalies != 0 {
				t.Errorf("unexpected transitions during steady rounds: %+v", snap)
			}
		})
	}
}

// healthEquivalenceConfig returns detector thresholds scaled to the
// equivalence scenario's few-second timescale, so the scripted history
// actually produces firings (and resolutions) to compare.
func healthEquivalenceConfig() health.Config {
	return health.Config{
		StallWindow:      0.25,
		JainThreshold:    0.9,
		JainWindow:       0.25,
		PinnedUtil:       0.9,
		MinBacklog:       1,
		CongestionWindow: 0.5,
		BBCapacity:       0, // scenario has no burst buffer
		ClearAfter:       0.25,
	}
}

// replayScriptHealth replays the scripted scenario with a health
// monitor (and probe, and optionally a decision-trace ring) attached,
// mirroring replayScriptProbe: the probe and the ring are snapshotted
// before the sessions drain, because finish triggers "leave" rounds the
// simulator run has no counterpart for.
func replayScriptHealth(t *testing.T, pol core.Scheduler, B, b float64, script []scriptEvent, mon *health.Monitor, pr *telemetry.Probe, ring *dectrace.Ring) (*telemetry.Telemetry, []*dectrace.Record) {
	t.Helper()
	cfg := Config{Policy: pol, TotalBW: B, NodeBW: b, Telemetry: pr, Health: mon}
	if ring != nil {
		cfg.DecisionTrace = ring
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var now float64
	srv.clock = func() float64 { return now }

	sessions := map[int]*session{}
	for _, ev := range script {
		now = ev.t
		switch ev.kind {
		case evHello:
			sess, err := srv.register(discardConn{}, &Message{Type: TypeHello, AppID: ev.app, Nodes: ev.nodes})
			if err != nil {
				t.Fatalf("t=%g: register app %d: %v", ev.t, ev.app, err)
			}
			sessions[ev.app] = sess
		case evRequest:
			err := srv.dispatch(sessions[ev.app], &Message{
				Type: TypeRequest, Volume: ev.vol, Work: ev.work, IdealTime: ev.ideal,
			})
			if err != nil {
				t.Fatalf("t=%g: request app %d: %v", ev.t, ev.app, err)
			}
		case evComplete:
			if err := srv.dispatch(sessions[ev.app], &Message{Type: TypeComplete}); err != nil {
				t.Fatalf("t=%g: complete app %d: %v", ev.t, ev.app, err)
			}
		}
	}
	tel := pr.Snapshot()
	var recs []*dectrace.Record
	if ring != nil {
		recs = ring.Records()
	}
	for _, sess := range sessions {
		srv.finish(sess)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return tel, recs
}

// TestDaemonHealthMatchesSimulator proves health monitoring
// deterministic across the engines: an identical workload under an
// identical policy produces bit-identical detector firing sequences —
// and bit-identical incident bundles — in the simulator and the daemon.
// It mirrors TestDaemonTelemetryMatchesSimulator one layer up: both
// monitors consume the point streams that test proves equal, so any
// divergence here means a detector holds hidden nondeterministic state.
func TestDaemonHealthMatchesSimulator(t *testing.T) {
	policies := []string{"MaxSysEff", "Priority-RoundRobin", "RoundRobin", "fair-share"}
	fired := false
	for _, name := range policies {
		name := name
		t.Run(name, func(t *testing.T) {
			B, b, p, apps := equivalenceScenario()
			pol, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := &sim.Trace{}
			simProbe := &telemetry.Probe{}
			simMon := health.New(healthEquivalenceConfig())
			simRes, err := sim.Run(sim.Config{
				Platform: p, Scheduler: pol, Apps: apps, Trace: tr,
				CheckGrants: true, Telemetry: simProbe, Health: simMon,
			})
			if err != nil {
				t.Fatal(err)
			}
			if simRes.Health == nil {
				t.Fatal("simulator run captured no health snapshot")
			}
			script := buildScript(t, p, apps, tr, simRes)

			daemonPol, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			daemonMon := health.New(healthEquivalenceConfig())
			daemonTel, _ := replayScriptHealth(t, daemonPol, B, b, script, daemonMon, &telemetry.Probe{}, nil)

			if !reflect.DeepEqual(daemonMon.Alerts(), simMon.Alerts()) {
				t.Fatalf("firing sequences diverge:\ndaemon: %+v\nsim:    %+v",
					daemonMon.Alerts(), simMon.Alerts())
			}
			if !reflect.DeepEqual(daemonMon.Snapshot(), simRes.Health) {
				t.Fatalf("verdict snapshots diverge:\ndaemon: %+v\nsim:    %+v",
					daemonMon.Snapshot(), simRes.Health)
			}
			if len(simMon.Alerts()) > 0 {
				fired = true
			}

			// Bundles captured from the equivalent states encode to
			// identical bytes. The comparison covers the deterministic
			// sections — verdicts, alerts, config, point series. The
			// daemon-only sections are excluded by construction: no live
			// snapshot, and the point series without the wall-clock
			// latency histograms New hangs off the daemon's probe.
			at := simRes.Summary.Makespan
			simBundle, err := (&health.Recorder{
				Monitor: simMon,
				Telemetry: func() *telemetry.Telemetry {
					return &telemetry.Telemetry{Points: simRes.Telemetry.Points}
				},
			}).Capture(at, "equivalence").Encode()
			if err != nil {
				t.Fatal(err)
			}
			daemonBundle, err := (&health.Recorder{
				Monitor: daemonMon,
				Telemetry: func() *telemetry.Telemetry {
					return &telemetry.Telemetry{Points: daemonTel.Points}
				},
			}).Capture(at, "equivalence").Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(simBundle, daemonBundle) {
				t.Error("incident bundles differ between engines")
				dumpIncidentArtifact(t, "sim", simBundle)
				dumpIncidentArtifact(t, "daemon", daemonBundle)
			}
		})
	}
	if !fired {
		t.Error("no policy fired any detector; the equivalence check is vacuous")
	}

	// All three observation layers at once, with a sampling probe: the
	// kernel builds a point only when the probe is Due or a monitor is
	// attached, and the monitor must still see every decision point while
	// the probe keeps only the sampled ones.
	for _, name := range policies {
		t.Run(name+"/sampled+traced", func(t *testing.T) {
			B, b, p, apps := equivalenceScenario()
			pol, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			const minInterval = 0.6
			tr := &sim.Trace{}
			simMon := health.New(healthEquivalenceConfig())
			simRing := dectrace.NewRing(1 << 12)
			simRes, err := sim.Run(sim.Config{
				Platform: p, Scheduler: pol, Apps: apps, Trace: tr, CheckGrants: true,
				Telemetry: &telemetry.Probe{MinInterval: minInterval}, Health: simMon,
				DecisionTrace: simRing,
			})
			if err != nil {
				t.Fatal(err)
			}
			script := buildScript(t, p, apps, tr, simRes)

			daemonPol, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			daemonMon := health.New(healthEquivalenceConfig())
			daemonTel, daemonRecs := replayScriptHealth(t, daemonPol, B, b, script, daemonMon,
				&telemetry.Probe{MinInterval: minInterval}, dectrace.NewRing(1<<12))

			simPts, daemonPts := simRes.Telemetry.Points, daemonTel.Points
			if len(simPts) == 0 || len(simPts) >= simRes.Events {
				t.Fatalf("%d sampled points over %d events: the probe did not sample", len(simPts), simRes.Events)
			}
			if !reflect.DeepEqual(daemonPts, simPts) {
				t.Fatalf("sampled point series diverge:\ndaemon: %+v\nsim:    %+v", daemonPts, simPts)
			}
			if !reflect.DeepEqual(daemonMon.Alerts(), simMon.Alerts()) {
				t.Fatalf("firing sequences diverge:\ndaemon: %+v\nsim:    %+v",
					daemonMon.Alerts(), simMon.Alerts())
			}
			simRecs := simRing.Records()
			if len(simRecs) == 0 || len(daemonRecs) != len(simRecs) {
				t.Fatalf("daemon traced %d records, sim %d", len(daemonRecs), len(simRecs))
			}
			for i := range simRecs {
				if got, want := traceComparable(daemonRecs[i]), traceComparable(simRecs[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("record %d diverges:\ndaemon: %+v\nsim:    %+v", i, got, want)
				}
			}
		})
	}
}

// traceComparable strips a decision record of what legitimately differs
// between the engines: the trigger vocabulary (event kinds in the
// simulator, message types on the daemon) and the remaining volumes,
// which the daemon learns only from progress reports the scripted replay
// does not send.
func traceComparable(r *dectrace.Record) dectrace.Record {
	c := *r
	c.Kind = ""
	c.Apps = append([]dectrace.AppRecord(nil), r.Apps...)
	for i := range c.Apps {
		c.Apps[i].RemV = 0
	}
	return c
}

// dumpIncidentArtifact writes an encoded bundle from a failing
// equivalence check into $IOSCHED_INCIDENT_DIR (no-op when unset). CI
// sets the variable on the race job and uploads the directory as an
// artifact on failure, so a divergence leaves behind the exact bundles
// to diff and to replay with `iosim -run incident`.
func dumpIncidentArtifact(t *testing.T, label string, encoded []byte) {
	t.Helper()
	dir := os.Getenv("IOSCHED_INCIDENT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("incident artifact dir: %v", err)
		return
	}
	name := strings.NewReplacer("/", "-", " ", "-").Replace(t.Name()) + "-" + label + ".json"
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, encoded, 0o644); err != nil {
		t.Logf("incident artifact: %v", err)
		return
	}
	t.Logf("incident bundle written to %s", path)
}

// TestHealthMetricsAndPrometheus checks the daemon surfaces: Metrics
// gains the health fields and /metrics.prom carries the
// iosched_health_* family.
func TestHealthMetricsAndPrometheus(t *testing.T) {
	mon := health.New(health.Config{StallWindow: 1e9}) // never fires
	srv, sess := newDirectServerCfg(t, Config{
		Policy: core.MaxSysEff(), TotalBW: 4, NodeBW: 1, Health: mon,
	}, 4, 1)
	req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
	for _, s := range sess {
		if err := srv.dispatch(s, req); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	if m.HealthState != "ok" {
		t.Errorf("Metrics.HealthState = %q, want ok", m.HealthState)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"health_state":"ok"`)) {
		t.Errorf("metrics JSON missing health_state: %s", data)
	}

	var buf bytes.Buffer
	if err := srv.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for _, name := range []string{
		"iosched_health_state",
		"iosched_health_anomalies_total",
		"iosched_health_congestion_error",
		"iosched_health_firing_stall",
		"iosched_health_firings_total_slo_burn",
	} {
		if fams[name] == nil {
			t.Errorf("missing metric %s\n%s", name, buf.String())
		}
	}
	if v := fams["iosched_health_state"].Samples["iosched_health_state"]; v != 0 {
		t.Errorf("iosched_health_state = %g, want 0 (ok)", v)
	}
}
