package dectrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// jsonEncode is the reference encoding AppendRecord must reproduce.
func jsonEncode(t testing.TB, r *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// checkSameBytes fails unless AppendRecord writes exactly the reference
// encoding of r, also when appending after existing bytes.
func checkSameBytes(t testing.TB, r *Record) {
	t.Helper()
	want := jsonEncode(t, r)
	got, err := AppendRecord(nil, r)
	if err != nil {
		t.Fatalf("AppendRecord(%+v): %v", r, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendRecord differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	prefix := []byte("prefix")
	got, err = AppendRecord(prefix, r)
	if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendRecord after a prefix: %q, %v", got, err)
	}
}

// specialFloats are the values where encoding/json's float rule has an
// edge: signed zeros, both sides of the 1e-6 and 1e21 format switches,
// subnormals, the largest finite values and exponents with one, two and
// three digits.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 6.4, 24, 0.0125, 1e20, 1e21, -1e21,
	9.999999999999999e20, 1.0000000000000001e21, 1e22, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
	1e-6, -1e-6, 9.99999e-7, 1e-7, -1e-7, 5e-10, 1.2345e-100, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 123456789.125, 1 << 53, 3.141592653589793,
}

// specialStrings exercise the escaping fallback: HTML characters, quotes
// and backslashes, every short escape, other control bytes, DEL,
// non-ASCII, U+2028/U+2029 and invalid UTF-8.
var specialStrings = []string{
	"", "decide", "memo", "io-complete|release", "MaxSysEff", "Priority-MinDilation",
	"<script>&amp;</script>", `say "hi"`, `back\slash`, "tab\there", "nl\ncr\r", "\b\f",
	"\x00\x01\x1f", "del\x7f", "héllo wörld", "日本語", "line sep \u2028 para \u2029", "bad\xff\xfeutf8",
	"trunc\xe2\x82", "emoji 🚀", "&", "<", ">",
}

func randFloat(rnd *rand.Rand) float64 {
	switch rnd.Intn(6) {
	case 0:
		return specialFloats[rnd.Intn(len(specialFloats))]
	case 1:
		return float64(rnd.Intn(2000) - 1000) // integral values
	case 2:
		return rnd.Float64() * math.Pow(10, float64(rnd.Intn(40)-20)) // around 1e-6 and 1e21
	case 3:
		return -rnd.ExpFloat64() * math.Pow(10, float64(rnd.Intn(600)-300))
	case 4:
		return math.Float64frombits(rnd.Uint64() &^ (0x7ff << 52)) // subnormals
	default:
		return rnd.NormFloat64() * 100
	}
}

func randString(rnd *rand.Rand) string {
	if rnd.Intn(2) == 0 {
		return specialStrings[rnd.Intn(len(specialStrings))]
	}
	b := make([]byte, rnd.Intn(12))
	for i := range b {
		if rnd.Intn(4) == 0 {
			b[i] = byte(rnd.Intn(256)) // any byte, invalid UTF-8 included
		} else {
			b[i] = byte(0x20 + rnd.Intn(0x5f))
		}
	}
	return string(b)
}

func randInt(rnd *rand.Rand) int {
	switch rnd.Intn(4) {
	case 0:
		return -rnd.Intn(1000)
	case 1:
		return []int{0, math.MaxInt64, math.MinInt64}[rnd.Intn(3)]
	default:
		return rnd.Intn(100000)
	}
}

func randRecord(rnd *rand.Rand) *Record {
	r := &Record{
		Seq:         rnd.Uint64() >> uint(rnd.Intn(64)),
		Time:        randFloat(rnd),
		Policy:      randString(rnd),
		Verdict:     randString(rnd),
		CandVersion: rnd.Uint64() >> uint(rnd.Intn(64)),
		TotalBW:     randFloat(rnd),
		NodeBW:      randFloat(rnd),
		Decisions:   randInt(rnd),
		Skipped:     randInt(rnd),
	}
	if rnd.Intn(4) > 0 {
		r.Kind = randString(rnd)
	}
	switch rnd.Intn(3) {
	case 0: // nil: omitted
	case 1:
		r.Apps = []AppRecord{} // empty: omitted too
	default:
		r.Apps = make([]AppRecord, 1+rnd.Intn(5))
		for i := range r.Apps {
			a := &r.Apps[i]
			a.ID, a.Nodes = randInt(rnd), randInt(rnd)
			a.Phase, a.RemV = randString(rnd), randFloat(rnd)
			a.Started = rnd.Intn(2) == 0
			if rnd.Intn(3) > 0 {
				a.PendingSince = randFloat(rnd)
			}
		}
	}
	switch rnd.Intn(3) {
	case 0:
	case 1:
		r.Grants = []GrantRecord{}
	default:
		r.Grants = make([]GrantRecord, 1+rnd.Intn(5))
		for i := range r.Grants {
			r.Grants[i] = GrantRecord{ID: randInt(rnd), BW: randFloat(rnd)}
		}
	}
	return r
}

// TestAppendRecordMatchesEncodingJSON is the differential test behind
// the trace format: AppendRecord must write exactly encoding/json's bytes.
func TestAppendRecordMatchesEncodingJSON(t *testing.T) {
	for _, f := range specialFloats {
		for _, v := range []float64{f, -f} {
			checkSameBytes(t, &Record{Time: v, TotalBW: v, NodeBW: v,
				Apps:   []AppRecord{{RemV: v, PendingSince: v}},
				Grants: []GrantRecord{{BW: v}}})
		}
	}
	for _, s := range specialStrings {
		checkSameBytes(t, &Record{Kind: s, Policy: s, Verdict: s, Apps: []AppRecord{{Phase: s}}})
	}
	checkSameBytes(t, &Record{})
	checkSameBytes(t, rec(7))

	// Random records, each checked alone and all streamed through one
	// Writer, whose float memo then serves the values that repeat.
	rnd := rand.New(rand.NewSource(1))
	var got, want bytes.Buffer
	w := NewWriter(&got)
	for i := 0; i < 20000; i++ {
		r := randRecord(rnd)
		checkSameBytes(t, r)
		want.Write(jsonEncode(t, r))
		w.Observe(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Writer stream differs from the encoding/json stream")
	}
}

// TestWriterNonFiniteIsSticky: NaN and ±Inf are unsupported by JSON, as
// in encoding/json; the error sticks and later records are dropped.
func TestWriterNonFiniteIsSticky(t *testing.T) {
	for _, bad := range []func(*Record){
		func(r *Record) { r.Time = math.NaN() },
		func(r *Record) { r.TotalBW = math.Inf(1) },
		func(r *Record) { r.NodeBW = math.Inf(-1) },
		func(r *Record) { r.Apps[0].RemV = math.NaN() },
		func(r *Record) { r.Apps[0].PendingSince = math.Inf(1) },
		func(r *Record) { r.Grants[0].BW = math.NaN() },
	} {
		r := rec(2)
		bad(r)
		if _, err := json.Marshal(r); err == nil {
			t.Fatal("encoding/json accepted a non-finite record")
		}
		dst := []byte("keep")
		out, err := AppendRecord(dst, r)
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) || string(out) != "keep" {
			t.Fatalf("AppendRecord = %q, %v; want the input back and an UnsupportedValueError", out, err)
		}

		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Observe(rec(1))
		w.Observe(r)
		w.Observe(rec(3))
		if w.Err() == nil || w.Flush() == nil {
			t.Fatal("Writer accepted a non-finite record")
		}
		if buf.Len() != 0 {
			t.Fatalf("Writer flushed %d bytes after a sticky error", buf.Len())
		}
	}
}

// TestReadAllLongLine: a saturating record over a large population is a
// multi-megabyte line; whatever Writer writes ReadAll must read back.
func TestReadAllLongLine(t *testing.T) {
	const cands = 50000
	big := &Record{Seq: 1, Time: 2.5, Kind: "release", Policy: "MaxSysEff", Verdict: "saturating",
		TotalBW: 1e6, NodeBW: 0.0125, Apps: make([]AppRecord, cands), Grants: make([]GrantRecord, cands)}
	for i := range big.Apps {
		big.Apps[i] = AppRecord{ID: 100000 + i, Nodes: 1 + i%4096, Phase: "pending",
			RemV: float64(i) * 0.37, Started: i%2 == 0, PendingSince: float64(i%7) * 1.25}
		big.Grants[i] = GrantRecord{ID: 100000 + i, BW: float64(1+i%4096) * 0.0125}
	}
	want := []*Record{rec(0), big, rec(2)}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range want {
		w.Observe(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n < 1<<22 {
		t.Fatalf("trace is %d bytes; the test needs a line beyond the old 4 MiB cap", n)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("long-line round trip mismatch")
	}

	// A trace cut inside the long line still yields its prefix.
	cut := buf.Bytes()[:buf.Len()/2]
	got, err = ReadAll(bytes.NewReader(cut))
	if err == nil || len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("truncated long line: %d records, err %v; want the first record and an error", len(got), err)
	}
}

// TestWriterObserveAllocationFree pins the encoder's point: after the
// scratch buffer has grown, observing a record allocates nothing.
func TestWriterObserveAllocationFree(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r := rec(5)
	w.Observe(r)
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		w.Observe(r)
	})
	if allocs != 0 {
		t.Fatalf("Writer.Observe allocates %.1f times per record, want 0", allocs)
	}
}

// TestFloatMemo: a memoized rendering is served only for the exact bits
// it was made from — also when distinct floats share a memo slot, or
// differ only in sign or in the last mantissa bit.
func TestFloatMemo(t *testing.T) {
	slot := func(f float64) uint64 {
		return math.Float64bits(f) * 0x9E3779B97F4A7C15 >> (64 - floatMemoBits)
	}
	rnd := rand.New(rand.NewSource(3))
	var vals []float64
	for _, f := range specialFloats {
		vals = append(vals, f, -f, math.Nextafter(f, 0))
		for { // a distinct float sharing f's slot
			g := randFloat(rnd)
			if g != f && slot(g) == slot(f) {
				vals = append(vals, g)
				break
			}
		}
	}
	e := encoder{memo: new(floatMemo)}
	for round := 0; round < 3; round++ {
		for _, f := range vals {
			e.b = e.b[:0]
			e.float(f)
			if want := appendFloat(nil, f); !bytes.Equal(e.b, want) {
				t.Fatalf("memoized %v (bits %#x) rendered %s, want %s", f, math.Float64bits(f), e.b, want)
			}
		}
	}
}

// TestWriterConcurrentObserve: the Writer's scratch buffer and float memo
// are shared state; concurrent observers must still produce whole,
// correctly encoded lines.
func TestWriterConcurrentObserve(t *testing.T) {
	const workers, each = 4, 200
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := make([]*Record, workers*each)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		rnd := rand.New(rand.NewSource(int64(g)))
		recs := want[g*each : (g+1)*each]
		for i := range recs {
			recs[i] = randRecord(rnd)
			recs[i].Seq = uint64(g*each + i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range recs {
				w.Observe(r)
			}
		}()
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d", len(lines), len(want))
	}
	for _, l := range lines {
		var r Record
		if err := json.Unmarshal(l, &r); err != nil {
			t.Fatalf("torn line %q: %v", l, err)
		}
		if !bytes.Equal(l, jsonEncode(t, want[r.Seq])) {
			t.Fatalf("line for seq %d differs from its encoding/json bytes", r.Seq)
		}
	}
}
