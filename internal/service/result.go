package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/rdf"
)

// This file is the result path of /query and /execute: one hand-written
// writer from an Outcome's dictionary IDs to JSON bytes. Each cell is
// rendered by the dictionary's append-style decode straight into a pooled
// buffer, N-Triples and JSON escaping in one pass (rdf.JSON): no
// [][]string, no reflection, no HTML escaping. row_count is always the full
// size and truncated appears only when max_rows cut the rows; unbound cells
// (dict.None, left by OPTIONAL) render as "UNDEF".

// resultFlushBytes is the size above which a finished row sends the buffer
// to the connection, so response memory is O(chunk), not O(rows).
const resultFlushBytes = 32 << 10

// resultBufs pools the response buffers across requests.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeResults answers 200 with outs rendered as the bare result object,
// or as {"results":[...]} for the batch form. Every outcome is closed as
// soon as its rows are rendered, and on any exit (a panic included) so no
// snapshot pin outlives the request. A failed write means the client is
// gone: rendering stops there, and there is nobody left to report it to.
func writeResults(w http.ResponseWriter, outs []*Outcome, maxRows int, batch bool) {
	defer func() {
		for _, out := range outs {
			out.Close()
		}
	}()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bp := resultBufs.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() {
		*bp = b[:0]
		resultBufs.Put(bp)
	}()
	if batch {
		b = append(b, `{"results":[`...)
	}
	for i, out := range outs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendResult(b, w, out, maxRows); err != nil {
			return
		}
		out.Close()
	}
	if batch {
		b = append(b, "]}"...)
	}
	b = append(b, '\n')
	_, _ = w.Write(b)
}

// appendResult appends one outcome's object to b, writing b out to w
// between rows whenever it has grown past resultFlushBytes; a failed write
// ends it with that error and the rows left undecoded. max_rows truncates
// before decoding, so a small limit never pays to render a huge result.
func appendResult(b []byte, w io.Writer, out *Outcome, maxRows int) ([]byte, error) {
	res := out.Result
	b = append(b, `{"vars":[`...)
	for i, v := range res.Vars {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(rdf.JSON.AppendText(append(b, `"?`...), string(v)), '"')
	}
	b = append(b, `],"rows":[`...)
	rows := res.Rows
	truncated := maxRows > 0 && len(rows) > maxRows
	if truncated {
		rows = rows[:maxRows]
	}
	d := out.Store.Dict()
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, id := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			var ok bool
			if b, ok = d.AppendTerm(b, id, rdf.JSON); !ok {
				b = append(b, "UNDEF"...)
			}
			b = append(b, '"')
		}
		b = append(b, ']')
		if len(b) >= resultFlushBytes {
			if _, err := w.Write(b); err != nil {
				return b[:0], err
			}
			b = b[:0]
		}
	}
	b = strconv.AppendInt(append(b, `],"row_count":`...), int64(len(res.Rows)), 10)
	if truncated {
		b = append(b, `,"truncated":true`...)
	}
	b = strconv.AppendFloat(append(b, `,"cout":`...), res.Cout, 'f', -1, 64)
	b = strconv.AppendFloat(append(b, `,"work":`...), res.Work, 'f', -1, 64)
	b = strconv.AppendInt(append(b, `,"scanned":`...), int64(res.Scanned), 10)
	b = strconv.AppendInt(append(b, `,"duration_us":`...), res.Duration.Microseconds(), 10)
	b = rdf.JSON.AppendText(append(b, `,"plan_signature":"`...), out.Plan.Signature)
	b = strconv.AppendBool(append(b, `","cache_hit":`...), out.CacheHit)
	b = strconv.AppendUint(append(b, `,"generation":`...), out.Generation, 10)
	if out.Analyze != "" {
		b = appendJSONField(b, `,"explain_analyze":`, out.Analyze)
	}
	if out.Trace != nil {
		b = appendJSONField(b, `,"spans":`, out.Trace)
	}
	return append(b, '}'), nil
}

// appendJSONField appends key and v marshalled by encoding/json — the
// explain=analyze extras, which are rare, small and arbitrarily shaped.
func appendJSONField(b []byte, key string, v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		return b
	}
	return append(append(b, key...), enc...)
}
