package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The sim-100k population: the shape of BenchmarkFig6a100k (cohorts of
// identical periodic applications released together on a platform
// provisioned above their aggregate demand, so every round takes the
// Saturating skip), with popInstances I/O instances per application.
const (
	popApps      = 100_000
	popCohorts   = 20
	popNodes     = 64
	popInstances = 5
)

// population builds the sim-100k inputs. The seed jitters each cohort's
// compute time and volume; applications within a cohort stay identical,
// so they keep moving in lockstep and the event count stays that of the
// original shape.
func population(seed int64) (*platform.Platform, []*platform.App) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed100))
	const nodeBW = 0.0125
	p := &platform.Platform{
		Name:    "perfbench-100k",
		Nodes:   popApps*popNodes + 1,
		NodeBW:  nodeBW,
		TotalBW: popApps * popNodes * nodeBW * 1.25,
	}
	size := popApps / popCohorts
	apps := make([]*platform.App, 0, popApps)
	for c := 0; c < popCohorts; c++ {
		work := 100 + 10*float64(c) + 5*rng.Float64()
		vol := 80 * (0.9 + 0.2*rng.Float64())
		for i := 0; i < size; i++ {
			apps = append(apps, platform.NewPeriodic(c*size+i, popNodes, work, vol, popInstances))
		}
	}
	return p, apps
}

// minDilation is the smallest dilation a finished application may show.
// An uncongested application's finish instant and its ideal time are the
// same sum of phase durations added in different orders, so they can
// differ by a few ulps; anything further below 1 is a real error.
const minDilation = 1 - 1e-12

// run100k simulates the population once under MaxSysEff (wrapped when
// sched is a timing wrapper) and checks that every application finished
// with a dilation of at least 1, up to rounding.
func run100k(r *report, p *platform.Platform, apps []*platform.App, sched core.Scheduler) (*sim.Result, error) {
	res, err := sim.Run(sim.Config{Platform: p, Scheduler: sched, Apps: apps})
	if err != nil {
		return nil, err
	}
	bad := 0
	for _, a := range res.Apps {
		if !(a.Finish > a.Release && a.Dilation() >= minDilation) {
			bad++
		}
	}
	r.check(len(res.Apps) == popApps && bad == 0, "%d of %d applications finished with dilation < 1", bad, len(res.Apps))
	return res, nil
}

func runSim100k(e *env, r *report) error {
	var p *platform.Platform
	var apps []*platform.App
	setup, err := timeSetup(func() error {
		p, apps = population(e.seed)
		return nil
	})
	if err != nil {
		return err
	}
	sched := core.MaxSysEff()
	if _, err := run100k(r, p, apps, sched); err != nil { // warm-up
		return err
	}
	var runs []float64
	for start := time.Now(); time.Since(start) < e.seconds; {
		t0 := time.Now()
		res, err := sim.Run(sim.Config{Platform: p, Scheduler: sched, Apps: apps})
		runs = append(runs, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		r.check(res.Summary.Dilation >= minDilation && len(res.Apps) == popApps, "run dilation %g over %d apps", res.Summary.Dilation, len(res.Apps))
	}
	// The memory pass also checks every application of its run (outside
	// the window: the per-application sweep is the check, not the load).
	mem, err := memPeak(func() error {
		_, err := run100k(r, p, apps, sched)
		return err
	})
	if err != nil {
		return err
	}
	r.setEndToEnd(setup, len(runs), median(runs), quantile(runs, 0.9), popApps/median(runs), mem, "apps_per_s", "run")
	return nil
}

func traceSim100k(e *env, r *report) error {
	tr := e.tr
	root := tr.begin("sim-100k", 0)
	id := tr.begin("workload.population", root)
	p, apps := population(e.seed)
	tr.end(id)
	r.set("workload.generate_s", tr.total("workload.population"))

	sched := core.MaxSysEff()
	if _, err := run100k(r, p, apps, sched); err != nil { // warm-up
		return err
	}
	// Every run of the population gives the same result, so only the
	// first is kept (one is 10 MB) and the others are compared with it.
	var alloc allocStats
	var first *sim.Result
	n := 0
	phase := tr.begin("traced runs", root)
	for start := time.Now(); time.Since(start) < e.seconds/2; n++ {
		w, t := timed(sched)
		id := tr.begin("sim.Run", phase)
		res, err := sim.Run(sim.Config{Platform: p, Scheduler: w, Apps: apps})
		tr.end(id)
		if err != nil {
			return err
		}
		alloc.add(t)
		if first == nil {
			first = res
		} else {
			r.check(sameResult(res, first), "traced runs of one population differ")
		}
	}
	tr.end(phase)

	// The same runs untraced: the tracing overhead and the runtime's costs.
	before := readGoStats()
	start := time.Now()
	for i := 0; i < n; i++ {
		res, err := sim.Run(sim.Config{Platform: p, Scheduler: sched, Apps: apps})
		if err != nil {
			return err
		}
		if i == 0 {
			r.check(sameResult(res, first), "untraced run differs from the traced one")
		}
	}
	base := time.Since(start).Seconds()
	setGoStats(r, before, readGoStats(), n)

	var drains []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := armDrain(apps); err != nil {
			return err
		}
		drains = append(drains, time.Since(start).Seconds())
	}
	r.set("des.arm_drain_s", median(drains))

	alloc.set(r, n)
	setSimStats(r, []*sim.Result{first}, 1)
	r.set("sim.run_s", tr.total("sim.Run")/float64(n))
	r.set("trace.overhead", tr.total("traced runs")/base)
	r.set("trace.base_s", base)
	tr.end(root)
	return nil
}

// armDrain arms one timer per application at its first compute deadline
// on a standalone event kernel, in one ArmAll, and drains them.
func armDrain(apps []*platform.App) error {
	var eng des.Engine
	fired := 0
	fn := func() { fired++ }
	arms := make([]des.Arm, len(apps))
	for i, a := range apps {
		arms[i] = des.Arm{At: a.Release + a.Instances[0].Work, Fn: fn}
	}
	eng.ArmAll(arms)
	eng.Run()
	if fired != len(apps) {
		return fmt.Errorf("des drained %d of %d timers", fired, len(apps))
	}
	return nil
}
