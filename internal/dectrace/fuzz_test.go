package dectrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzReadAll checks the trace reader never panics, that everything it
// accepts re-encodes to the same bytes under AppendRecord and
// encoding/json, and that it survives a write/read round trip unchanged
// in count.
func FuzzReadAll(f *testing.F) {
	f.Add("")
	f.Add("\n\n")
	f.Add(`{"seq":1,"t":0.5,"policy":"MaxSysEff","verdict":"decide"}`)
	f.Add(`{"seq":2,"verdict":"memo"}` + "\n" + `{"seq":3,"verdict":"saturating","grants":[{"id":1,"bw_gibs":2}]}`)
	f.Add(`{"seq":"not-a-number"}`)
	f.Add(strings.Repeat("x", 100))
	f.Add(`{"seq":4,"t":1e-7,"kind":"<&>\u2028","policy":"p\"q\\","verdict":"\u0000\ufffd","total_bw_gibs":1e21,"node_bw_gibs":-0,` +
		`"apps":[{"id":-1,"nodes":2,"phase":"é","rem_gib":-1.5e-300,"started":true,"pending_since":-0}],"grants":[]}`)
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadAll(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted input must re-encode byte-identically under both
		// encoders and survive a write/read round trip.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			want, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("encoding/json rejects an accepted record: %v", err)
			}
			got, err := AppendRecord(nil, r)
			if err != nil {
				t.Fatalf("AppendRecord rejects an accepted record: %v", err)
			}
			if !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("encoders disagree:\nAppendRecord %s\nencoding/json %s", got, want)
			}
			w.Observe(r)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("re-encoding accepted records: %v", err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-reading re-encoded records: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
	})
}
