// Package xsort provides the stable sort the hot paths share, tuned for
// scheduling decisions: allocation-free binary-insertion sort on small
// slices, where it beats sort.SliceStable's closure and reflect-based
// swapper, and delegation to sort.SliceStable above the threshold, where
// insertion's O(n²) element moves would dominate. Stable sorts have a
// unique output, so every path through Stable is bit-transparent with
// sort.SliceStable.
package xsort

import "sort"

// insertionMaxLen bounds the binary-insertion path: scheduling decisions
// sort a handful of candidates, where shifting a few pointer-sized
// elements is cheaper than SliceStable's reflect machinery. Beyond it the
// quadratic move count loses, so Stable switches to sort.SliceStable.
const insertionMaxLen = 64

// Stable sorts v in place, stably. Slices up to insertionMaxLen elements
// are sorted allocation-free by binary insertion; longer slices delegate
// to sort.SliceStable (O(n log n) comparisons, O(n log² n) moves).
func Stable[T any](v []T, less func(a, b T) bool) {
	if len(v) <= insertionMaxLen {
		insertionStable(v, less)
		return
	}
	sort.SliceStable(v, func(i, j int) bool { return less(v[i], v[j]) })
}

// insertionStable is a stable binary-insertion sort.
func insertionStable[T any](v []T, less func(a, b T) bool) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if less(x, v[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(v[lo+1:i+1], v[lo:i])
		v[lo] = x
	}
}
