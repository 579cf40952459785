package dectrace

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendRecord appends r to dst as one JSON Lines record — the object
// followed by a newline — and returns the extended buffer. The bytes are
// exactly what json.NewEncoder(w).Encode(r) writes: the same field order
// and omitempty rules, encoding/json's float formatting and its
// HTML-safe string escaping. It exists because reflection dominated the
// cost of tracing every decision point.
//
// Like encoding/json, it rejects NaN and ±Inf with a
// *json.UnsupportedValueError; dst is then returned unextended.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	e := encoder{b: dst}
	return e.appendRecord(r)
}

// encoder renders records into b. With memo set it remembers recent
// float renderings across records: a pending application's remaining
// volume and pending-since time repeat verbatim from one decision point
// to the next, and shortest-float formatting is most of the encoding
// cost.
type encoder struct {
	b    []byte
	err  error // the current record's first error
	memo *floatMemo
}

// floatMemo is a direct-mapped cache from a float's bits to its JSON
// rendering. An entry only ever holds the bytes appendFloat produced for
// exactly those bits, so a hit is byte-identical by construction.
type floatMemo [1 << floatMemoBits]floatMemoEntry

const floatMemoBits = 10

// floatMemoEntry is one cached rendering; 32 bytes in all. The rare
// rendering longer than s (17 digits plus a long exponent or zero run)
// is not kept.
type floatMemoEntry struct {
	bits uint64
	n    uint8 // rendering length; 0 marks an empty entry
	s    [23]byte
}

// appendRecord appends r to e.b and returns it, cut back to its old
// length on error.
func (e *encoder) appendRecord(r *Record) ([]byte, error) {
	start := len(e.b)
	e.err = nil
	e.b = append(e.b, `{"seq":`...)
	e.b = strconv.AppendUint(e.b, r.Seq, 10)
	e.b = append(e.b, `,"t":`...)
	e.float(r.Time)
	if r.Kind != "" {
		e.b = append(e.b, `,"kind":`...)
		e.string(r.Kind)
	}
	e.b = append(e.b, `,"policy":`...)
	e.string(r.Policy)
	e.b = append(e.b, `,"verdict":`...)
	e.string(r.Verdict)
	e.b = append(e.b, `,"cand_version":`...)
	e.b = strconv.AppendUint(e.b, r.CandVersion, 10)
	e.b = append(e.b, `,"total_bw_gibs":`...)
	e.float(r.TotalBW)
	e.b = append(e.b, `,"node_bw_gibs":`...)
	e.float(r.NodeBW)
	e.b = append(e.b, `,"decisions":`...)
	e.b = strconv.AppendInt(e.b, int64(r.Decisions), 10)
	e.b = append(e.b, `,"skipped":`...)
	e.b = strconv.AppendInt(e.b, int64(r.Skipped), 10)
	if len(r.Apps) > 0 {
		e.b = append(e.b, `,"apps":[`...)
		for i := range r.Apps {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.app(&r.Apps[i])
		}
		e.b = append(e.b, ']')
	}
	if len(r.Grants) > 0 {
		e.b = append(e.b, `,"grants":[`...)
		for i, g := range r.Grants {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"id":`...)
			e.b = strconv.AppendInt(e.b, int64(g.ID), 10)
			e.b = append(e.b, `,"bw_gibs":`...)
			e.float(g.BW)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, "}\n"...)
	if e.err != nil {
		e.b = e.b[:start]
	}
	return e.b, e.err
}

func (e *encoder) app(a *AppRecord) {
	e.b = append(e.b, `{"id":`...)
	e.b = strconv.AppendInt(e.b, int64(a.ID), 10)
	e.b = append(e.b, `,"nodes":`...)
	e.b = strconv.AppendInt(e.b, int64(a.Nodes), 10)
	e.b = append(e.b, `,"phase":`...)
	e.string(a.Phase)
	e.b = append(e.b, `,"rem_gib":`...)
	e.float(a.RemV)
	if a.Started {
		e.b = append(e.b, `,"started":true`...)
	}
	if a.PendingSince != 0 { // -0 is empty too, as in encoding/json
		e.b = append(e.b, `,"pending_since":`...)
		e.float(a.PendingSince)
	}
	e.b = append(e.b, '}')
}

// float appends f, through the memo when there is one.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	if e.memo == nil {
		e.b = appendFloat(e.b, f)
		return
	}
	bits := math.Float64bits(f)
	m := &e.memo[bits*0x9E3779B97F4A7C15>>(64-floatMemoBits)] // Fibonacci hashing
	if m.n != 0 && m.bits == bits {
		e.b = append(e.b, m.s[:m.n]...)
		return
	}
	start := len(e.b)
	e.b = appendFloat(e.b, f)
	if n := len(e.b) - start; n <= len(m.s) {
		m.bits, m.n = bits, uint8(copy(m.s[:], e.b[start:]))
	}
}

// appendFloat follows encoding/json's float64 rule: the shortest 'f'
// form, switching to 'e' outside [1e-6, 1e21) with a two-digit negative
// exponent trimmed to one ("1e-07" becomes "1e-7"). f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// string quotes s. Printable ASCII that needs no escaping — every phase,
// verdict, policy and event-kind name the engines emit — is copied
// verbatim; anything else goes through json.Marshal, which applies the
// full escaping rules (control bytes, HTML characters, invalid UTF-8,
// U+2028/U+2029).
func (e *encoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil && e.err == nil {
				e.err = err // unreachable: Marshal cannot fail on a string
			}
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
