package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/workload"
)

// runTraced executes cfg with a Slice sink attached and returns the
// records plus the Result.
func runTraced(t *testing.T, cfg Config) ([]*dectrace.Record, *Result) {
	t.Helper()
	sink := &dectrace.Slice{}
	cfg.DecisionTrace = sink
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	return sink.Records, res
}

// TestReplayFidelity pins the decision trace's determinism across the
// cross-engine battery: re-running a recorded configuration with no
// forced alternative reproduces every recorded verdict bit-identically,
// and a run split at a snapshot boundary (both halves traced) emits
// exactly the full run's record stream.
func TestReplayFidelity(t *testing.T) {
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			first, res1 := runTraced(t, c.Cfg)
			again, res2 := runTraced(t, c.Cfg)
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("re-run diverged: %d vs %d records", len(first), len(again))
			}
			if res1.Decisions != res2.Decisions || res1.Skipped != res2.Skipped {
				t.Fatalf("re-run counters diverged: %d/%d vs %d/%d",
					res1.Decisions, res1.Skipped, res2.Decisions, res2.Skipped)
			}
			if len(first) != res1.Decisions+res1.Skipped {
				t.Fatalf("trace has %d records, result counted %d decision points",
					len(first), res1.Decisions+res1.Skipped)
			}

			// Untraced run: tracing must not perturb outcomes.
			bare, err := Run(c.Cfg)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			if !reflect.DeepEqual(bare, res1) {
				t.Fatal("attaching a decision trace changed the run result")
			}

			// Split run: snapshot mid-flight, trace both halves, compare the
			// concatenated streams (Seq continues because counters are
			// restored).
			mid := first[len(first)/2].Time
			headSink := &dectrace.Slice{}
			headCfg := c.Cfg
			headCfg.DecisionTrace = headSink
			snap, err := RunToSnapshot(headCfg, mid)
			if err != nil {
				t.Fatalf("snapshot at %g: %v", mid, err)
			}
			tailSink := &dectrace.Slice{}
			tailCfg := c.Cfg
			tailCfg.DecisionTrace = tailSink
			if _, err := Resume(tailCfg, snap); err != nil {
				t.Fatalf("resume: %v", err)
			}
			joined := append(append([]*dectrace.Record(nil), headSink.Records...), tailSink.Records...)
			if !reflect.DeepEqual(joined, first) {
				t.Fatalf("split-run trace diverged: %d+%d records vs %d",
					len(headSink.Records), len(tailSink.Records), len(first))
			}
		})
	}
}

// TestSkipBreakdown pins the per-reason skip counters: they sum to
// Skipped, agree with the trace's verdicts, and survive a snapshot
// round trip.
func TestSkipBreakdown(t *testing.T) {
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			recs, res := runTraced(t, c.Cfg)
			if got := res.SkippedMemo + res.SkippedSaturating + res.SkippedSingleFullGrant; got != res.Skipped {
				t.Fatalf("breakdown sums to %d, Skipped = %d", got, res.Skipped)
			}
			byVerdict := map[string]int{}
			for _, r := range recs {
				byVerdict[r.Verdict]++
			}
			if byVerdict["decide"] != res.Decisions ||
				byVerdict["memo"] != res.SkippedMemo ||
				byVerdict["saturating"] != res.SkippedSaturating ||
				byVerdict["single-full-grant"] != res.SkippedSingleFullGrant {
				t.Fatalf("trace verdicts %v disagree with result %d/%d/%d/%d",
					byVerdict, res.Decisions, res.SkippedMemo, res.SkippedSaturating, res.SkippedSingleFullGrant)
			}

			snap, err := RunToSnapshot(c.Cfg, 1e18)
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if snap.SkippedMemo+snap.SkippedSaturating+snap.SkippedSingleFullGrant != snap.Skipped {
				t.Fatalf("snapshot breakdown %d+%d+%d != %d",
					snap.SkippedMemo, snap.SkippedSaturating, snap.SkippedSingleFullGrant, snap.Skipped)
			}
		})
	}
}

// TestTraceBytesMatchEncodingJSON pins the JSONL trace format on real
// traces: on the fig6a/fig6b cells under MaxSysEff and
// Priority-MinDilation, with and without the burst buffer, the Writer's
// bytes equal what encoding/json writes for the same records.
func TestTraceBytesMatchEncodingJSON(t *testing.T) {
	for _, kind := range []workload.Fig6Kind{workload.Fig6A, workload.Fig6B} {
		for _, seed := range []int64{3, 11} {
			wcfg := workload.Fig6Config(kind, seed)
			apps, err := workload.Generate(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"MaxSysEff", "Priority-MinDilation"} {
				for _, bb := range []bool{false, true} {
					sched, err := core.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{Platform: wcfg.Platform, Scheduler: sched, Apps: apps, UseBB: bb}
					if !bb {
						cfg.Platform = wcfg.Platform.WithoutBB()
					}
					var got, want bytes.Buffer
					slice := &dectrace.Slice{}
					w := dectrace.NewWriter(&got)
					cfg.DecisionTrace = dectrace.Tee{slice, w}
					if _, err := Run(cfg); err != nil {
						t.Fatal(err)
					}
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					enc := json.NewEncoder(&want)
					for _, r := range slice.Records {
						if err := enc.Encode(r); err != nil {
							t.Fatal(err)
						}
					}
					if len(slice.Records) == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("fig6 kind %v seed %d %s bb=%v: %d records, Writer wrote %d bytes, encoding/json %d",
							kind, seed, name, bb, len(slice.Records), got.Len(), want.Len())
					}
				}
			}
		}
	}
}
