package decide

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// nopHooks is an engine without side effects.
type nopHooks struct{}

func (nopHooks) Granted(*Member) {}
func (nopHooks) Kind() string    { return "test" }

// skipPolicies is every policy core.ByName knows, each also wrapped in a
// core.Timeout (which delegates the fast-path capabilities to its inner
// policy).
func skipPolicies(t *testing.T) []core.Scheduler {
	t.Helper()
	var out []core.Scheduler
	for _, name := range []string{
		"RoundRobin", "MinDilation", "MaxSysEff", "MinMax-0.5",
		"Priority-RoundRobin", "Priority-MinDilation", "Priority-MaxSysEff", "Priority-MinMax-0.5",
		"fair-share", "proportional-share", "exclusive-fcfs",
	} {
		p, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p, core.NewTimeout(p, 2))
	}
	return out
}

// randomViews builds n candidate views at time now with mixed discrete
// state (pending or transferring, started or not, some stalls past the
// Timeout window) and unique IDs.
func randomViews(rng *rand.Rand, n int, now float64) []core.AppView {
	views := make([]core.AppView, n)
	for i := range views {
		release := rng.Float64() * now / 2
		work := rng.Float64() * (now - release)
		v := core.AppView{
			ID:            10*i + rng.Intn(10),
			Nodes:         1 + rng.Intn(16),
			Release:       release,
			Phase:         core.Pending,
			RemVolume:     1 + 50*rng.Float64(),
			LastIOEnd:     release + rng.Float64()*(now-release),
			PendingSince:  now - 5*rng.Float64(),
			CreditedWork:  work,
			CreditedIdeal: work * (1 + rng.Float64()),
		}
		if rng.Intn(2) == 0 {
			v.Phase = core.Transferring
			v.Started = true
		} else {
			v.Started = rng.Intn(3) == 0
		}
		views[i] = v
	}
	return views
}

// randomCapacity returns a capacity whose B is between 0.3 and 2 times
// the views' total demand, so about half the draws are uncongested.
func randomCapacity(rng *rand.Rand, views []core.AppView) core.Capacity {
	c := core.Capacity{NodeBW: 0.25 + rng.Float64()}
	demand := 0.0
	for _, v := range views {
		demand += float64(v.Nodes) * c.NodeBW
	}
	c.TotalBW = demand * (0.3 + 1.7*rng.Float64())
	return c
}

// newTestKernel installs copies of views as candidates, added in a
// shuffled order. Half the kernels key them by index — ascending with
// the IDs, as in generated workloads — and half by a random permutation,
// so grant lookups also run where Key order is not ID order. It returns
// the views in Key order, the order the kernel hands the policy.
func newTestKernel(rng *rand.Rand, p core.Scheduler, views []core.AppView) (*Kernel, []Member, []*core.AppView) {
	k := New(Config{Policy: p, Hooks: nopHooks{}, CheckGrants: true})
	own := append([]core.AppView(nil), views...)
	bws := make([]float64, len(views))
	members := make([]Member, len(views))
	keys := rng.Perm(len(views))
	if rng.Intn(2) == 0 {
		for i := range keys {
			keys[i] = i
		}
	}
	ordered := make([]*core.AppView, len(views))
	for i := range members {
		members[i] = Member{View: &own[i], BW: &bws[i], Key: keys[i]}
		v := views[i]
		ordered[keys[i]] = &v
	}
	for _, i := range rng.Perm(len(members)) {
		k.Add(&members[i])
	}
	return k, members, ordered
}

// checkGrants compares the candidates' applied bandwidths with a policy
// verdict bit for bit (absent grants are zero).
func checkGrants(t *testing.T, what string, members []Member, grants []core.Grant) {
	t.Helper()
	want := map[int]float64{}
	for _, g := range grants {
		want[g.AppID] = g.BW
	}
	for _, m := range members {
		if m.slot == 0 {
			continue
		}
		if got := *m.BW; math.Float64bits(got) != math.Float64bits(want[m.View.ID]) {
			t.Fatalf("%s: app %d granted %v, policy says %v", what, m.View.ID, got, want[m.View.ID])
		}
	}
}

// TestFastPathsMatchPolicy checks the single-full-grant and saturating
// fast paths against the policy itself: whenever the kernel skipped the
// invocation under either, the grants it applied equal core.AllocateWith
// on the same views, bit for bit.
func TestFastPathsMatchPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	policies := skipPolicies(t)
	var single, saturating int
	for trial := 0; trial < 400; trial++ {
		now := 20 + 10*rng.Float64()
		views := randomViews(rng, 1+rng.Intn(6), now)
		c := randomCapacity(rng, views)
		for _, p := range policies {
			k, members, ref := newTestKernel(rng, p, views)
			k.Decide(now, c)
			cnt := k.Counts()
			if cnt.Single+cnt.Saturating == 0 {
				continue
			}
			single += int(cnt.Single)
			saturating += int(cnt.Saturating)
			checkGrants(t, p.Name(), members, core.AllocateWith(p, &core.Scratch{}, now, ref, c))
		}
	}
	if single == 0 || saturating == 0 {
		t.Fatalf("vacuous: %d single-full-grant and %d saturating skips", single, saturating)
	}
}

// TestMemoSkipsMatchPolicy checks the memo rule: on every memo-skipped
// decision point, re-invoking the policy over the current views
// reproduces the grants the kernel kept applied. Between decision points
// time advances and volumes drain — inputs a Memoizable policy must not
// read — and now and then a candidate leaves or rejoins.
func TestMemoSkipsMatchPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	policies := skipPolicies(t)
	memo := 0
	for trial := 0; trial < 200; trial++ {
		now := 20 + 10*rng.Float64()
		views := randomViews(rng, 1+rng.Intn(6), now)
		c := randomCapacity(rng, views)
		for _, p := range policies {
			k, members, _ := newTestKernel(rng, p, views)
			for round := 0; round < 6; round++ {
				if m := &members[rng.Intn(len(members))]; rng.Intn(3) == 0 {
					if m.slot == 0 {
						k.Add(m)
					} else if k.Len() > 1 {
						k.Remove(m)
					}
				}
				before := k.Counts().Memo
				k.Decide(now, c)
				if k.Counts().Memo > before {
					memo++
					grants := core.AllocateWith(p, &core.Scratch{}, now, k.Views(), c)
					checkGrants(t, p.Name(), members, grants)
				}
				now += rng.Float64()
				for i := range members {
					members[i].View.RemVolume *= rng.Float64()
				}
			}
		}
	}
	if memo == 0 {
		t.Fatal("vacuous: no memo skips")
	}
}
