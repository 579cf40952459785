package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The campaign-fig6 grid: the paper's Figure 6 scenarios under the
// fair-share baseline and the heuristics, over campaignSeeds seeds.
var (
	fig6Scenarios = []struct {
		name string
		kind workload.Fig6Kind
	}{{"fig6a", workload.Fig6A}, {"fig6b", workload.Fig6B}, {"fig6c", workload.Fig6C}}
	fig6Policies = []string{"fair-share", "RoundRobin", "MaxSysEff", "MinDilation",
		"Priority-MaxSysEff", "Priority-MinDilation"}
)

// campaignCells is the size of the grid.
var campaignCells = len(fig6Scenarios) * len(fig6Policies) * campaignSeeds

const (
	campaignSeeds   = 20
	campaignWorkers = 2
	// seedSlots bounds the distinct campaign grids: --seed selects one of
	// them, so every grid can have its group digest recorded.
	seedSlots = 100
)

// digests holds the recorded group-summary digest of every campaign grid,
// keyed by seed slot. Regenerate with `go test -run TestRecordDigests
// -record` after a change that legitimately alters simulation results.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(slot int64) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[strconv.FormatInt(slot, 10)], nil
}

func seedSlot(seed int64) int64 { return ((seed % seedSlots) + seedSlots) % seedSlots }

// campaignSpec builds the grid for a seed. The spec is the only input
// the campaign layer receives.
func campaignSpec(seed int64) *campaign.Spec {
	spec := &campaign.Spec{
		Name:       "perfbench-fig6",
		Platforms:  []campaign.PlatformSpec{{Preset: "intrepid"}},
		Schedulers: fig6Policies,
		Seeds:      campaign.SeedRange{Start: 1 + campaignSeeds*seedSlot(seed), Count: campaignSeeds},
	}
	for _, s := range fig6Scenarios {
		spec.Workloads = append(spec.Workloads, campaign.WorkloadSpec{Name: s.name, Scenario: s.name})
	}
	return spec
}

// groupDigest identifies a campaign's outcome: the hash of its group
// summaries.
func groupDigest(groups []campaign.GroupSummary) string {
	b, err := json.Marshal(groups)
	if err != nil {
		panic(err) // group summaries are plain numbers and strings
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// coldPass runs the whole grid on a fresh cache directory and returns the
// results with the pass's wall time.
func coldPass(e *env, spec *campaign.Spec) (*campaign.Results, *campaign.RunStats, float64, error) {
	dir, err := os.MkdirTemp(e.out, "cache-")
	if err != nil {
		return nil, nil, 0, err
	}
	defer os.RemoveAll(dir)
	cache, err := campaign.NewCache(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	res, stats, err := (&campaign.Runner{Spec: spec, Cache: cache, Workers: campaignWorkers}).Run()
	return res, stats, time.Since(start).Seconds(), err
}

// checkCampaign verifies one pass: every cell simulated (or, warm, served
// from the cache) and the group digest equal to the expected one.
func checkCampaign(r *report, res *campaign.Results, stats *campaign.RunStats, warm bool, want string) {
	if warm {
		r.check(stats.CacheHits == campaignCells, "warm pass hit the cache %d times, want %d", stats.CacheHits, campaignCells)
	} else {
		r.check(stats.Simulated == campaignCells, "cold pass simulated %d cells, want %d", stats.Simulated, campaignCells)
	}
	got := groupDigest(res.Groups)
	r.check(got == want, "group digest %s, want %s", got, want)
}

// campaignSetup times expanding the grid and opening a fresh cache, and
// looks up the expected digest.
func campaignSetup(e *env) (*campaign.Spec, []float64, string, error) {
	spec := campaignSpec(e.seed)
	setup, err := timeSetup(func() error {
		if _, err := spec.Expand(); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(e.out, "cache-")
		if err != nil {
			return err
		}
		_, err = campaign.NewCache(dir)
		return err
	})
	if err != nil {
		return nil, nil, "", err
	}
	want, err := recordedDigest(seedSlot(e.seed))
	if err != nil {
		return nil, nil, "", err
	}
	if want == "" {
		return nil, nil, "", fmt.Errorf("no digest recorded for seed slot %d", seedSlot(e.seed))
	}
	return spec, setup, want, nil
}

func runCampaign(e *env, r *report) error {
	spec, setup, want, err := campaignSetup(e)
	if err != nil {
		return err
	}
	// The first pass in a process runs markedly slower; it is a warm-up.
	res, stats, _, err := coldPass(e, spec)
	if err != nil {
		return err
	}
	checkCampaign(r, res, stats, false, want)

	var passes []float64
	for start := time.Now(); time.Since(start) < e.seconds; {
		res, stats, wall, err := coldPass(e, spec)
		if err != nil {
			return err
		}
		passes = append(passes, wall)
		checkCampaign(r, res, stats, false, want)
	}
	mem, err := memPeak(func() error {
		res, stats, _, err := coldPass(e, spec)
		if err == nil {
			checkCampaign(r, res, stats, false, want)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.setEndToEnd(setup, len(passes), median(passes), quantile(passes, 0.9), float64(campaignCells)/median(passes), mem, "cells_per_s", "cold sweep")
	return nil
}

// traceCampaign breaks a cold pass into its layers. The campaign runner
// resolves policies by name internally, so the simulation and policy
// layers are measured on a serial replica of the grid — the same cells,
// built through the same public functions — whose results must equal the
// runner's cell results exactly.
func traceCampaign(e *env, r *report) error {
	tr := e.tr
	spec := campaignSpec(e.seed)
	root := tr.begin("campaign-fig6", 0)
	id := tr.begin("campaign.Spec.Expand", root)
	if _, err := spec.Expand(); err != nil {
		return err
	}
	tr.end(id)
	want, err := recordedDigest(seedSlot(e.seed))
	if err != nil {
		return err
	}
	if _, _, _, err := coldPass(e, spec); err != nil { // warm-up
		return err
	}

	dir, err := os.MkdirTemp(e.out, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := campaign.NewCache(dir)
	if err != nil {
		return err
	}
	runner := &campaign.Runner{Spec: spec, Cache: cache, Workers: campaignWorkers}
	before := readGoStats()
	id = tr.begin("campaign.Runner.Run cold", root)
	cold, stats, err := runner.Run()
	tr.end(id)
	if err != nil {
		return err
	}
	setGoStats(r, before, readGoStats(), 1)
	checkCampaign(r, cold, stats, false, want)
	id = tr.begin("campaign.Runner.Run warm", root)
	warm, stats, err := runner.Run()
	tr.end(id)
	if err != nil {
		return err
	}
	checkCampaign(r, warm, stats, true, want)

	putDir, err := os.MkdirTemp(e.out, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	putCache, err := campaign.NewCache(putDir)
	if err != nil {
		return err
	}
	id = tr.begin("campaign.Cache.Put", root)
	for _, c := range cold.Cells {
		if err := putCache.Put(c); err != nil {
			return err
		}
	}
	tr.end(id)
	id = tr.begin("campaign.Aggregator", root)
	agg := campaign.NewAggregator()
	for i, c := range cold.Cells {
		agg.Add(i, c)
	}
	groups := agg.Groups()
	tr.end(id)
	r.check(groupDigest(groups) == want, "aggregator digest %s, want %s", groupDigest(groups), want)

	// The serial replica, traced and then untraced for the overhead.
	var alloc allocStats
	id = tr.begin("serial replica", root)
	sims, err := replicateCampaign(spec, tr, id, &alloc)
	tr.end(id)
	if err != nil {
		return err
	}
	traced := tr.total("serial replica")
	start := time.Now()
	if _, err := replicateCampaign(spec, nil, 0, nil); err != nil {
		return err
	}
	base := time.Since(start).Seconds()

	r.check(len(sims) == len(cold.Cells), "replica ran %d cells, runner %d", len(sims), len(cold.Cells))
	for i, res := range sims {
		c := cold.Cells[i]
		r.check(len(res.Apps) == c.Apps && res.Events == c.Events && res.Decisions == c.Decisions &&
			res.SkippedMemo == c.SkippedMemo && res.SkippedSaturating == c.SkippedSaturating &&
			res.SkippedSingleFullGrant == c.SkippedSingleFullGrant && res.Summary == c.Summary,
			"traced replica of cell %d differs from the runner's result", i)
	}
	alloc.set(r, 1)
	setSimStats(r, sims, 1)
	r.set("sim.run_s", tr.total("sim.Run"))
	r.set("workload.generate_s", tr.total("workload.Generate"))
	r.set("campaign.expand_s", tr.total("campaign.Spec.Expand"))
	r.set("campaign.cache_put_s", tr.total("campaign.Cache.Put"))
	r.set("campaign.cache_get_s", tr.total("campaign.Runner.Run warm"))
	r.set("campaign.aggregate_s", tr.total("campaign.Aggregator"))
	coldWall := tr.total("campaign.Runner.Run cold")
	r.set("campaign.parallel_eff", tr.total("sim.Run")/(coldWall*campaignWorkers))
	r.set("trace.overhead", traced/base)
	r.set("trace.base_s", base)
	tr.end(root)
	return nil
}

// replicateCampaign runs every cell of spec serially, in the campaign's
// expansion order (workload, then seed, then policy), through the same
// public functions the runner uses. With alloc set, each policy runs
// under timedPolicy; with a tracer, each call into a layer is a span.
func replicateCampaign(spec *campaign.Spec, tr *tracer, parent int, alloc *allocStats) ([]*sim.Result, error) {
	plat := platform.Presets()[spec.Platforms[0].Preset].WithoutBB()
	var out []*sim.Result
	for _, sc := range fig6Scenarios {
		for _, seed := range spec.Seeds.Values() {
			wcfg := workload.Fig6Config(sc.kind, seed)
			wcfg.Platform = plat
			id := tr.begin("workload.Generate", parent)
			apps, err := workload.Generate(wcfg)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			for _, name := range spec.Schedulers {
				pol, err := core.ByName(name)
				if err != nil {
					return nil, err
				}
				var tp *timedPolicy
				if alloc != nil {
					pol, tp = timed(pol)
				}
				id := tr.begin("sim.Run", parent)
				res, err := sim.Run(sim.Config{Platform: plat, Scheduler: pol, Apps: apps})
				tr.end(id)
				if err != nil {
					return nil, err
				}
				if tp != nil {
					alloc.add(tp)
				}
				out = append(out, res)
			}
		}
	}
	return out, nil
}
