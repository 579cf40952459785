package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/health"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The sim-observed cells: fig6a and fig6b mixes over observedSeeds seeds,
// each under both policies, run serially with every observability layer
// attached. The workload's op is one sweep over all of them.
var observedPolicies = []string{"MaxSysEff", "Priority-MinDilation"}

const observedSeeds = 12

type obsCell struct {
	name   string
	plat   *platform.Platform
	apps   []*platform.App
	policy string
}

// observedCells generates the cell list for a seed.
func observedCells(seed int64) ([]obsCell, error) {
	var cells []obsCell
	for i := int64(0); i < observedSeeds; i++ {
		for _, sc := range fig6Scenarios[:2] {
			s := seed*observedSeeds + i
			wcfg := workload.Fig6Config(sc.kind, s)
			wcfg.Platform = wcfg.Platform.WithoutBB()
			apps, err := workload.Generate(wcfg)
			if err != nil {
				return nil, err
			}
			for _, pol := range observedPolicies {
				cells = append(cells, obsCell{fmt.Sprintf("%s/seed%d/%s", sc.name, s, pol), wcfg.Platform, apps, pol})
			}
		}
	}
	return cells, nil
}

// layers selects the observability layers of one run.
type layers struct {
	telemetry, health, dectrace bool
}

var allLayers = layers{true, true, true}

// observation is what one observed run produced.
type observation struct {
	res    *sim.Result
	points int // telemetry points recorded
	bytes  int // decision-trace JSONL written
}

// observe runs one cell with the selected layers. The decision trace is
// written as JSONL into buf, which is reset first; with sink set, the
// writer is wrapped in it.
func observe(c obsCell, on layers, buf *bytes.Buffer, sched core.Scheduler, sink *timedSink) (*observation, error) {
	cfg := sim.Config{Platform: c.plat, Scheduler: sched, Apps: c.apps}
	var probe *telemetry.Probe
	if on.telemetry {
		probe = &telemetry.Probe{}
		cfg.Telemetry = probe
	}
	if on.health {
		cfg.Health = health.New(health.Config{})
	}
	var w *dectrace.Writer
	if on.dectrace {
		buf.Reset()
		w = dectrace.NewWriter(buf)
		cfg.DecisionTrace = w
		if sink != nil {
			sink.inner = w
			cfg.DecisionTrace = sink
		}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	obs := &observation{res: res}
	if probe != nil {
		obs.points = probe.Points()
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return nil, err
		}
		obs.bytes = buf.Len()
	}
	return obs, nil
}

// readBack checks that the decision trace in buf holds exactly one record
// per decision point.
func readBack(r *report, c obsCell, obs *observation, buf *bytes.Buffer) error {
	recs, err := dectrace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	points := obs.res.Decisions + obs.res.Skipped
	r.check(len(recs) == points, "%s: read back %d decision records, want %d", c.name, len(recs), points)
	return nil
}

func policy(name string) core.Scheduler {
	s, err := core.ByName(name)
	if err != nil {
		panic(err) // the policy names above are fixed
	}
	return s
}

// observedWarmUp runs every cell once, reads every trace back and returns
// each cell's trace size, which every later run of the cell must
// reproduce.
func observedWarmUp(r *report, cells []obsCell, buf *bytes.Buffer) ([]int, error) {
	sizes := make([]int, len(cells))
	for i, c := range cells {
		obs, err := observe(c, allLayers, buf, policy(c.policy), nil)
		if err != nil {
			return nil, err
		}
		sizes[i] = obs.bytes
		if err := readBack(r, c, obs, buf); err != nil {
			return nil, err
		}
	}
	return sizes, nil
}

func runObserved(e *env, r *report) error {
	var cells []obsCell
	setup, err := timeSetup(func() error {
		var err error
		cells, err = observedCells(e.seed)
		return err
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sizes, err := observedWarmUp(r, cells, &buf)
	if err != nil {
		return err
	}

	points := 0
	sweep := func() error {
		for i, c := range cells {
			obs, err := observe(c, allLayers, &buf, policy(c.policy), nil)
			if err != nil {
				return err
			}
			points += obs.res.Decisions + obs.res.Skipped
			r.check(obs.bytes == sizes[i] && obs.points > 0,
				"%s: trace of %d bytes and %d telemetry points, want %d bytes", c.name, obs.bytes, obs.points, sizes[i])
		}
		return nil
	}
	var sweeps []float64
	for start := time.Now(); time.Since(start) < e.seconds; {
		t0 := time.Now()
		if err := sweep(); err != nil {
			return err
		}
		sweeps = append(sweeps, time.Since(t0).Seconds())
	}
	pointsPerSec := float64(points) / sum(sweeps)
	mem, err := memPeak(sweep)
	if err != nil {
		return err
	}
	r.setEndToEnd(setup, len(sweeps), median(sweeps), quantile(sweeps, 0.9), pointsPerSec, mem, "points_per_s", "observed sweep")
	return nil
}

func traceObserved(e *env, r *report) error {
	tr := e.tr
	root := tr.begin("sim-observed", 0)
	id := tr.begin("workload.Generate", root)
	cells, err := observedCells(e.seed)
	tr.end(id)
	if err != nil {
		return err
	}
	r.set("workload.generate_s", tr.total("workload.Generate"))
	var buf bytes.Buffer
	if _, err := observedWarmUp(r, cells, &buf); err != nil {
		return err
	}

	// Whole sweeps, traced: every count below repeats exactly under a
	// fixed seed.
	var alloc allocStats
	var sims []*sim.Result
	var observeTime time.Duration
	var records, points, anomalies, bytes int
	phase := tr.begin("traced sweeps", root)
	for start := time.Now(); len(sims) == 0 || time.Since(start) < e.seconds/3; {
		for _, c := range cells {
			w, t := timed(policy(c.policy))
			sink := &timedSink{}
			id := tr.begin("sim.Run observed", phase)
			obs, err := observe(c, allLayers, &buf, w, sink)
			tr.end(id)
			if err != nil {
				return err
			}
			alloc.add(t)
			sims = append(sims, obs.res)
			observeTime += sink.total
			records += sink.records
			points += obs.points
			bytes += obs.bytes
			anomalies += obs.res.Anomalies
		}
	}
	tr.end(phase)
	sweeps := len(sims) / len(cells)

	// The same sweeps untraced, for the overhead, the runtime's costs and
	// a bit-identity check.
	untraced := make([]*sim.Result, len(cells))
	before := readGoStats()
	start := time.Now()
	for i := range sims {
		c := cells[i%len(cells)]
		obs, err := observe(c, allLayers, &buf, policy(c.policy), nil)
		if err != nil {
			return err
		}
		untraced[i%len(cells)] = obs.res
	}
	base := time.Since(start).Seconds()
	setGoStats(r, before, readGoStats(), sweeps)
	for i, c := range cells {
		r.check(sameResult(untraced[i], sims[i]), "%s: traced result differs from the untraced one", c.name)
	}

	// Each layer's marginal cost: a sweep with that layer alone minus a
	// sweep with none, medians of alternating rounds.
	configs := []layers{{}, {telemetry: true}, {health: true}, {dectrace: true}}
	times := make([][]float64, len(configs))
	for round := 0; round < 3; round++ {
		for k, on := range configs {
			t0 := time.Now()
			for _, c := range cells {
				if _, err := observe(c, on, &buf, policy(c.policy), nil); err != nil {
					return err
				}
			}
			times[k] = append(times[k], time.Since(t0).Seconds())
		}
	}
	none := median(times[0])
	r.set("observe.telemetry_s", median(times[1])-none)
	r.set("observe.health_s", median(times[2])-none)
	r.set("observe.dectrace_s", median(times[3])-none)

	perOp := func(v float64) float64 { return v / float64(sweeps) }
	r.set("dectrace.observe_s", perOp(observeTime.Seconds()))
	r.set("dectrace.records", perOp(float64(records)))
	r.set("dectrace.bytes", perOp(float64(bytes)))
	r.set("telemetry.points", perOp(float64(points)))
	r.set("health.anomalies", perOp(float64(anomalies)))
	alloc.set(r, sweeps)
	setSimStats(r, sims, sweeps)
	r.set("sim.run_s", perOp(tr.total("sim.Run observed")))
	r.set("trace.overhead", tr.total("traced sweeps")/base)
	r.set("trace.base_s", base)
	tr.end(root)
	return nil
}

// sameResult reports whether two runs produced bit-identical results.
func sameResult(a, b *sim.Result) bool { return reflect.DeepEqual(a, b) }

// setSimStats reports the simulation layer's counters, per operation.
func setSimStats(r *report, sims []*sim.Result, ops int) {
	var events, points, skipped, memo, sat, single int
	for _, s := range sims {
		events += s.Events
		points += s.Decisions + s.Skipped
		skipped += s.Skipped
		memo += s.SkippedMemo
		sat += s.SkippedSaturating
		single += s.SkippedSingleFullGrant
	}
	n := float64(max(ops, 1))
	r.set("sim.events", float64(events)/n)
	r.set("sim.decision_points", float64(points)/n)
	r.set("sim.skip_ratio", float64(skipped)/float64(max(points, 1)))
	r.set("sim.skipped_memo", float64(memo)/n)
	r.set("sim.skipped_saturating", float64(sat)/n)
	r.set("sim.skipped_single", float64(single)/n)
}
