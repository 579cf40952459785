package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the tracer's epoch, and the span that caused it (0 for a root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths share the traced ones.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span opened as id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// setupReps is how many times a run repeats its workload's set-up; setup_s
// is the median.
const setupReps = 15

// timeSetup runs fn once untimed, so lazy initialisation is not counted,
// then setupReps times timed, each after a garbage collection so that
// every repetition starts from the same heap.
func timeSetup(fn func() error) ([]float64, error) {
	if err := fn(); err != nil {
		return nil, err
	}
	out := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// latencies records durations in fixed 100 ns buckets, so recording
// allocates nothing and the heap does not grow with the sample count. The
// rare sample beyond the buckets' 2 ms range is kept exactly.
type latencies struct {
	counts []uint32
	over   []float64
	n      int
}

const (
	latResolution = 100 * time.Nanosecond
	latBuckets    = 20_000
)

func newLatencies() *latencies { return &latencies{counts: make([]uint32, latBuckets)} }

func (l *latencies) add(d time.Duration) {
	l.n++
	if b := int(d / latResolution); b < latBuckets {
		l.counts[b]++
		return
	}
	l.over = append(l.over, d.Seconds())
}

// merge adds o's samples to l.
func (l *latencies) merge(o *latencies) {
	for b, c := range o.counts {
		l.counts[b] += c
	}
	l.over = append(l.over, o.over...)
	l.n += o.n
}

// quantile returns the q-quantile in seconds, spreading each bucket's
// samples evenly across it.
func (l *latencies) quantile(q float64) float64 {
	if l.n == 0 {
		return 0
	}
	rank := q * float64(l.n-1)
	seen := 0.0
	for b, c := range l.counts {
		if c > 0 && rank < seen+float64(c) {
			return (float64(b) + (rank-seen)/float64(c)) * latResolution.Seconds()
		}
		seen += float64(c)
	}
	return quantile(l.over, (rank-seen)/float64(max(len(l.over)-1, 1)))
}

// goStats is a reading of the Go runtime's cumulative counters.
type goStats struct {
	allocBytes, mallocs, gcCycles float64
	gcCPU                         float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goStats{
		allocBytes: float64(s[0].Value.Uint64()),
		mallocs:    float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		gcCPU:      s[3].Value.Float64(),
	}
}

// setGoStats reports the runtime counters accumulated between two
// readings, divided over ops operations.
func setGoStats(r *report, before, after goStats, ops int) {
	n := float64(max(ops, 1))
	r.set("go.alloc_mib", (after.allocBytes-before.allocBytes)/n/(1<<20))
	r.set("go.mallocs", (after.mallocs-before.mallocs)/n)
	r.set("go.gc_cycles", (after.gcCycles-before.gcCycles)/n)
	r.set("go.gc_cpu_s", (after.gcCPU-before.gcCPU)/n)
}

// memPeak runs op once with the collector running after every 1% of heap
// growth and returns the largest live heap — the heap a collection found
// reachable — sampled every millisecond, in MiB. Collecting that often
// finds the peak to within about 1% of the heap, where the default pacing
// collects a few times per op at arbitrary points of it. The op runs
// outside every timed window.
func memPeak(op func() error) (float64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	stop, done := make(chan struct{}), make(chan struct{})
	peak := liveHeap()
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, liveHeap())
			}
		}
	}()
	err := op()
	close(stop)
	<-done
	return float64(max(peak, liveHeap())) / (1 << 20), err
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setEndToEnd reports the end-to-end metrics shared by every workload:
// the median set-up time, the throughput, the op latency quantiles (in
// seconds, over n ops) and the peak live heap. The readable table names
// the throughput by the workload's own unit (workName) and says what one
// op is.
func (r *report) setEndToEnd(setup []float64, n int, p50, p90, workPerSec, memPeak float64, workName, opName string) {
	r.set("setup_s", median(setup))
	r.set("work_per_s", workPerSec)
	r.set("op_p50_us", 1e6*p50)
	r.set("op_p90_us", 1e6*p90)
	r.set("mem_peak_mib", memPeak)
	r.linef("%-21s %.6g s (median of %d set-ups)", "setup_s", median(setup), len(setup))
	r.linef("%-21s %.6g 1/s (work_per_s)", workName, workPerSec)
	r.linef("%-21s %.6g us (one %s, %d samples)", "op_p50_us", 1e6*p50, opName, n)
	r.linef("%-21s %.6g us (one %s, %d samples, %d beyond it)", "op_p90_us", 1e6*p90, opName, n, n/10)
	r.linef("%-21s %.6g MiB (peak live heap, memory pass at GOGC=1)", "mem_peak_mib", memPeak)
}
