package xsort

import (
	"math/rand"
	"sort"
	"testing"
)

// TestStableMatchesSliceStable pins bit-transparency: Stable must produce
// exactly sort.SliceStable's output (stable sorts are unique), on both
// sides of the insertion/SliceStable threshold and at its boundary.
func TestStableMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type kv struct{ k, tag int }
	check := func(trial, n int) {
		a := make([]kv, n)
		for i := range a {
			a[i] = kv{k: rng.Intn(8), tag: i}
		}
		b := append([]kv(nil), a...)
		Stable(a, func(x, y kv) bool { return x.k < y.k })
		sort.SliceStable(b, func(i, j int) bool { return b[i].k < b[j].k })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d n=%d: Stable %v != SliceStable %v", trial, n, a, b)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		check(trial, rng.Intn(40))
	}
	for trial, n := range []int{insertionMaxLen - 1, insertionMaxLen, insertionMaxLen + 1, 200, 1000} {
		check(trial, n)
	}
}

// TestStableLargeReverseSorted exercises the delegated path on the
// adversarial input for insertion sort (strictly descending keys with
// duplicates), where the quadratic move count used to bite.
func TestStableLargeReverseSorted(t *testing.T) {
	type kv struct{ k, tag int }
	const n = 4096
	a := make([]kv, n)
	for i := range a {
		a[i] = kv{k: (n - i) / 3, tag: i}
	}
	Stable(a, func(x, y kv) bool { return x.k < y.k })
	for i := 1; i < n; i++ {
		if a[i-1].k > a[i].k || (a[i-1].k == a[i].k && a[i-1].tag > a[i].tag) {
			t.Fatalf("not stably sorted at %d: %v, %v", i, a[i-1], a[i])
		}
	}
}
