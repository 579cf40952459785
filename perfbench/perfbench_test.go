package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

var record = flag.Bool("record", false, "TestDigests: recompute digests.json for every seed slot")

// shippedPolicies is every policy the repository ships, including a
// Timeout (the one core.Waker).
func shippedPolicies() []core.Scheduler {
	out := core.AllHeuristics()
	out = append(out, core.FairShare{}, core.ProportionalShare{}, core.Exclusive{},
		core.NewTimeout(core.MaxSysEff(), 120), core.NewTimeout(core.MinDilation().WithPriority(), 60))
	return out
}

// TestTimedPolicyBitIdentical proves that the timing wrapper changes no
// result: for every shipped policy on the Figure 6 mixes, a run on the
// wrapped policy equals the run on the bare one, and the engines resolve
// the same capabilities for both.
func TestTimedPolicyBitIdentical(t *testing.T) {
	for _, pol := range shippedPolicies() {
		w, tp := timed(pol)
		bare, wrapped := core.CapsOf(pol), core.CapsOf(w)
		if bare.Memoizable != wrapped.Memoizable || bare.Saturating != wrapped.Saturating ||
			bare.SingleFullGrant != wrapped.SingleFullGrant || (bare.Waker == nil) != (wrapped.Waker == nil) {
			t.Errorf("%s: capabilities %+v, wrapped %+v", pol.Name(), bare, wrapped)
		}
		if _, ok := w.(core.ScratchAllocator); !ok {
			t.Errorf("%s: wrapper is not a ScratchAllocator", pol.Name())
		}
		for _, sc := range fig6Scenarios {
			wcfg := workload.Fig6Config(sc.kind, 7)
			wcfg.Platform = wcfg.Platform.WithoutBB()
			apps, err := workload.Generate(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(sim.Config{Platform: wcfg.Platform, Scheduler: pol, Apps: apps})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(sim.Config{Platform: wcfg.Platform, Scheduler: w, Apps: apps})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: wrapped run differs from the bare run", pol.Name(), sc.name)
			}
		}
		if len(tp.calls()) == 0 {
			t.Errorf("%s: no Allocate call was timed", pol.Name())
		}
	}
}

// TestTimedSinkBitIdentical proves that timing the decision-trace sink
// changes neither the records nor the result.
func TestTimedSinkBitIdentical(t *testing.T) {
	cells, err := observedCells(1)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	for _, c := range cells[:4] {
		want, err := observe(c, allLayers, &a, policy(c.policy), nil)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := timed(policy(c.policy))
		sink := &timedSink{}
		got, err := observe(c, allLayers, &b, w, sink)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) || !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("%s: traced observation differs", c.name)
		}
		if sink.records != want.res.Decisions+want.res.Skipped {
			t.Errorf("%s: sink saw %d records, want %d", c.name, sink.records, want.res.Decisions+want.res.Skipped)
		}
	}
}

// TestMetricTables keeps BENCHMARK.json and the tables in main.go equal.
func TestMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var gotNames []string
	for _, w := range spec.Workloads {
		gotNames = append(gotNames, w.Name)
	}
	if !reflect.DeepEqual(gotNames, names) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", gotNames, names)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s:\n%v\nwant\n%v", kind, g, w)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestDigests checks the recorded campaign digest of one seed slot, or
// with -record recomputes digests.json for all of them.
func TestDigests(t *testing.T) {
	slots := []int64{0}
	if *record {
		slots = nil
		for s := int64(0); s < seedSlots; s++ {
			slots = append(slots, s)
		}
	} else if testing.Short() {
		t.Skip("runs a whole campaign")
	}
	got := map[string]string{}
	for _, s := range slots {
		res, _, err := (&campaign.Runner{Spec: campaignSpec(s), Workers: campaignWorkers}).Run()
		if err != nil {
			t.Fatal(err)
		}
		got[strconv.FormatInt(s, 10)] = groupDigest(res.Groups)
	}
	if *record {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, s := range slots {
		want, err := recordedDigest(s)
		if err != nil {
			t.Fatal(err)
		}
		if got[strconv.FormatInt(s, 10)] != want {
			t.Errorf("seed slot %d: digest %s, recorded %s", s, got[fmt.Sprint(s)], want)
		}
	}
}

// TestLatenciesQuantile checks the bucketed quantiles against exact ones
// on a daemon-like sample: dense below the buckets' range, where a
// quantile is within one bucket of the exact one, plus a sparse tail
// beyond it, which is kept exactly.
func TestLatenciesQuantile(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	l := newLatencies()
	var exact []float64
	for i := 0; i < 200_000; i++ {
		d := 40*time.Microsecond + time.Duration(rng.ExpFloat64()*float64(30*time.Microsecond))
		if i%1000 == 0 {
			d = 3*time.Millisecond + time.Duration(rng.IntN(int(time.Millisecond)))
		}
		l.add(d)
		exact = append(exact, d.Seconds())
	}
	merged := newLatencies()
	merged.merge(l)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		got, want := merged.quantile(q), quantile(exact, q)
		if math.Abs(got-want) > latResolution.Seconds() {
			t.Errorf("q%g: %g s, exact %g s", q, got, want)
		}
	}
}
