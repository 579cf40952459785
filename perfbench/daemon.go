package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The daemon-tcp load: two closed-loop clients of daemonNodes nodes each
// against an embedded daemon with ioschedd's defaults. B is 1.5 times one
// application's cap, so two concurrent requests congest the round and the
// policy runs, yet both still get a nonzero grant.
const (
	daemonClients = 2
	daemonNodes   = 64
	daemonNodeBW  = 0.0125
	daemonTotalBW = 1.5 * daemonNodes * daemonNodeBW
	// daemonCap is one application's cap β·b, the largest legal grant.
	daemonCap   = daemonNodes * daemonNodeBW
	grantWait   = 5 * time.Second
	cycleInputs = 4096
)

// cycleInput is one request's parameters.
type cycleInput struct {
	volume, work float64
}

// daemonInputs draws each client's request parameters from the seed.
func daemonInputs(seed int64) [][]cycleInput {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xdae))
	out := make([][]cycleInput, daemonClients)
	for c := range out {
		out[c] = make([]cycleInput, cycleInputs)
		for i := range out[c] {
			out[c][i] = cycleInput{volume: 1 + 2*rng.Float64(), work: 0.5 + rng.Float64()}
		}
	}
	return out
}

// daemon is an embedded scheduler daemon on loopback with its clients.
type daemon struct {
	srv     *server.Server
	probe   *telemetry.Probe
	served  chan error
	clients []*server.Client
}

// startDaemon starts a daemon with ioschedd's defaults (a 4096-point
// telemetry probe and a health monitor with a 0.5 s grant-push SLO) under
// pol and dials the clients.
func startDaemon(pol core.Scheduler, tr *tracer, parent int) (*daemon, error) {
	probe := &telemetry.Probe{MaxPoints: 4096}
	mon := health.New(health.Config{
		SLOLatency: 0.5,
		SLOSource:  probe.Histogram("ioschedd_grant_push_delay_seconds"),
	})
	srv, err := server.New(server.Config{
		Policy:    pol,
		TotalBW:   daemonTotalBW,
		NodeBW:    daemonNodeBW,
		Telemetry: probe,
		Health:    mon,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, probe: probe, served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ln) }()
	id := tr.begin("client.Dial", parent)
	for i := 0; i < daemonClients; i++ {
		c, err := server.Dial(ln.Addr().String(), i+1, daemonNodes)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	tr.end(id)
	return d, nil
}

// close disconnects the clients, stops the daemon and waits for it.
func (d *daemon) close() error {
	for _, c := range d.clients {
		c.Close()
	}
	err := d.srv.Close()
	<-d.served
	return err
}

// clientLoad is what one client measured.
type clientLoad struct {
	latency *latencies // request sent to nonzero grant
	send    *latencies // the RequestIO call
	bad     int        // grants outside (0, β·b]
	seqDrop int        // cycles whose grant sequence went backwards
	err     error
}

// drive runs both clients' closed loops — request, nonzero grant,
// progress, complete — until the deadline passes or each has run cycles
// cycles (0: no limit).
func (d *daemon) drive(inputs [][]cycleInput, deadline time.Time, cycles int) []clientLoad {
	loads := make([]clientLoad, len(d.clients))
	var wg sync.WaitGroup
	for i, c := range d.clients {
		loads[i] = clientLoad{latency: newLatencies(), send: newLatencies()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &loads[i]
			var seq uint64
			for k := 0; ; k++ {
				if cycles > 0 && k == cycles || cycles == 0 && !time.Now().Before(deadline) {
					return
				}
				in := inputs[i][k%len(inputs[i])]
				ideal := in.work + in.volume/daemonCap
				t0 := time.Now()
				if l.err = c.RequestIO(in.volume, in.work, ideal); l.err != nil {
					return
				}
				t1 := time.Now()
				bw, err := c.WaitForBandwidth(grantWait)
				if err != nil {
					l.err = err
					return
				}
				l.latency.add(time.Since(t0))
				l.send.add(t1.Sub(t0))
				if !(bw > 0 && bw <= daemonCap) {
					l.bad++
				}
				if s := c.Seq(); s < seq {
					l.seqDrop++
				} else {
					seq = s
				}
				if l.err = c.Progress(in.volume / 2); l.err != nil {
					return
				}
				if l.err = c.CompleteIO(); l.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return loads
}

// checkLoads counts every cycle as an attempt, failing the ones with a
// grant outside (0, β·b], and checks the sequence and error record of
// each client.
func checkLoads(r *report, loads []clientLoad) (latency, send *latencies) {
	latency, send = newLatencies(), newLatencies()
	for i, l := range loads {
		r.attempted += l.latency.n
		r.failed += l.bad
		if l.bad > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: client %d: %d grants outside (0, %g]\n", i+1, l.bad, daemonCap)
		}
		r.check(l.seqDrop == 0, "client %d: grant sequence went backwards %d times", i+1, l.seqDrop)
		r.check(l.err == nil, "client %d: %v", i+1, l.err)
		latency.merge(l.latency)
		send.merge(l.send)
	}
	return latency, send
}

// checkCounters checks that every round was either a decision or a skip.
func checkCounters(r *report, m server.Metrics) {
	r.check(m.Rounds == m.Decisions+m.Skipped, "rounds %d != decisions %d + skipped %d", m.Rounds, m.Decisions, m.Skipped)
}

func runDaemon(e *env, r *report) error {
	inputs := daemonInputs(e.seed)
	pol := policy("Priority-MaxSysEff")
	// Set-up is timed from server start to both dials done; the first one
	// is a warm-up, and each daemon is closed outside the timing.
	var setup []float64
	var d *daemon
	for i := 0; i <= setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = startDaemon(pol, nil, 0); err != nil {
			return err
		}
		if i > 0 {
			setup = append(setup, time.Since(start).Seconds())
		}
	}
	checkLoads(r, d.drive(inputs, time.Now().Add(time.Second), 0)) // warm-up

	start := time.Now()
	loads := d.drive(inputs, start.Add(e.seconds), 0)
	window := time.Since(start).Seconds()
	latency, _ := checkLoads(r, loads)
	mem, err := memPeak(func() error {
		checkLoads(r, d.drive(inputs, time.Now().Add(time.Second), 0))
		return nil
	})
	if err != nil {
		return err
	}
	checkCounters(r, d.srv.Metrics())
	if err := d.close(); err != nil {
		return err
	}
	r.setEndToEnd(setup, latency.n, latency.quantile(0.50), latency.quantile(0.90),
		float64(latency.n)/window, mem, "cycles_per_s", "request-to-grant")
	return nil
}

func traceDaemon(e *env, r *report) error {
	tr := e.tr
	inputs := daemonInputs(e.seed)
	root := tr.begin("daemon-tcp", 0)
	w, t := timed(policy("Priority-MaxSysEff"))
	d, err := startDaemon(w, tr, root)
	if err != nil {
		return err
	}
	checkLoads(r, d.drive(inputs, time.Now().Add(time.Second), 0)) // warm-up
	rounds0 := d.srv.Metrics()
	calls0 := len(t.calls())

	id := tr.begin("traced window", root)
	before := readGoStats()
	start := time.Now()
	loads := d.drive(inputs, start.Add(e.seconds/2), 0)
	traced := time.Since(start).Seconds()
	after := readGoStats()
	tr.end(id)
	latency, send := checkLoads(r, loads)
	cycles := latency.n
	m := d.srv.Metrics()
	checkCounters(r, m)
	hist := func(name string, q float64) float64 {
		return 1e6 * d.probe.Histogram(name).Snapshot().Quantile(q)
	}
	r.set("server.round_us_p50", hist("ioschedd_round_duration_seconds", 0.50))
	r.set("server.round_us_p99", hist("ioschedd_round_duration_seconds", 0.99))
	r.set("server.push_delay_us_p50", hist("ioschedd_grant_push_delay_seconds", 0.50))
	r.set("server.push_delay_us_p99", hist("ioschedd_grant_push_delay_seconds", 0.99))
	r.set("server.apply_us_p50", hist("ioschedd_decision_apply_seconds", 0.50))
	r.set("server.apply_us_p99", hist("ioschedd_decision_apply_seconds", 0.99))
	if err := d.close(); err != nil {
		return err
	}
	rounds := m.Rounds - rounds0.Rounds
	r.set("server.rounds", float64(rounds)/float64(cycles))
	r.set("server.skip_ratio", float64(m.Skipped-rounds0.Skipped)/float64(max(rounds, 1)))
	r.set("server.pushes_per_cycle", float64(m.GrantPushes-rounds0.GrantPushes)/float64(cycles))
	r.set("client.dial_s", tr.total("client.Dial"))
	r.set("client.send_us_p50", 1e6*send.quantile(0.50))
	r.set("client.grant_us_p99", 1e6*latency.quantile(0.99))
	setGoStats(r, before, after, cycles)
	var alloc allocStats
	alloc.add(t)
	alloc.ns = alloc.ns[calls0:]
	alloc.set(r, cycles)

	// The same number of cycles on an untimed policy: the overhead.
	d, err = startDaemon(policy("Priority-MaxSysEff"), nil, 0)
	if err != nil {
		return err
	}
	checkLoads(r, d.drive(inputs, time.Now().Add(time.Second), 0)) // warm-up
	start = time.Now()
	checkLoads(r, d.drive(inputs, time.Time{}, cycles/daemonClients))
	base := time.Since(start).Seconds()
	if err := d.close(); err != nil {
		return err
	}
	r.set("trace.overhead", traced/base)
	r.set("trace.base_s", base)
	tr.end(root)
	return nil
}
