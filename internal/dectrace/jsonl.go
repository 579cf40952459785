package dectrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Writer streams records as JSON Lines: one Record object per line, in
// observation order, in AppendRecord's encoding. Writes are buffered;
// call Flush (or Close the underlying file after Flush) when done. Safe
// for concurrent use. Write and encode errors are sticky and reported by
// Err/Flush — Observe itself cannot fail, so an engine never stalls on a
// broken trace file.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc encoder // scratch buffer and float memo, reused under mu
	err error
}

// NewWriter builds a JSONL writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w), enc: encoder{memo: new(floatMemo)}}
}

// Observe implements Sink.
func (w *Writer) Observe(r *Record) {
	w.mu.Lock()
	if w.err == nil {
		w.enc.b = w.enc.b[:0]
		var line []byte
		if line, w.err = w.enc.appendRecord(r); w.err == nil {
			_, w.err = w.bw.Write(line)
		}
	}
	w.mu.Unlock()
}

// Err returns the first write or encode error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Flush drains the buffer and returns the sticky error, if any.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// ReadAll parses a JSONL decision trace, tolerating blank lines. It
// returns the records read so far alongside the first error, so a
// truncated trace (a crashed daemon) still yields its prefix. Lines have
// no length cap: a saturating record over a 100k-application population
// lists every candidate and runs to megabytes, and whatever Writer
// writes ReadAll must read back.
func ReadAll(r io.Reader) ([]*Record, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var out []*Record
	line := 0
	for {
		b, err := br.ReadBytes('\n')
		if len(b) > 0 {
			line++
			if len(trimSpace(b)) > 0 {
				rec := new(Record)
				if err := json.Unmarshal(b, rec); err != nil {
					return out, fmt.Errorf("dectrace: line %d: %w", line, err)
				}
				out = append(out, rec)
			}
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("dectrace: line %d: %w", line+1, err)
		}
	}
}

// trimSpace strips ASCII whitespace without allocating.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
