package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// This file implements the service's JSON HTTP API:
//
//	POST /query    {"query": "...", "bindings": {...}, "max_rows": n}
//	POST /prepare  {"name": "...", "query": "..."}
//	POST /execute  {"name": "...", "bindings": {...}}            (single)
//	POST /execute  {"name": "...", "batch": [{...}, {...}]}      (batch)
//	POST /reload   {"path": "new.snap"}
//	POST /update   {"update": "INSERT DATA { ... }"}
//	GET  /stats
//	GET  /healthz
//
// Binding values use N-Triples term syntax ("<http://x/T1>", "\"lit\"").
// Overload rejections are 429, request errors 400, execution errors 500.

type queryRequest struct {
	Query    string            `json:"query"`
	Bindings map[string]string `json:"bindings,omitempty"`
	MaxRows  int               `json:"max_rows,omitempty"`
	// Explain: "analyze" traces the execution and returns the EXPLAIN
	// ANALYZE listing and span tree alongside the result.
	Explain string `json:"explain,omitempty"`
}

type prepareRequest struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

type prepareResponse struct {
	Name   string   `json:"name"`
	Params []string `json:"params"`
	Text   string   `json:"text"`
}

type executeRequest struct {
	Name     string              `json:"name"`
	Bindings map[string]string   `json:"bindings,omitempty"`
	Batch    []map[string]string `json:"batch,omitempty"`
	MaxRows  int                 `json:"max_rows,omitempty"`
	// Explain: "analyze" traces the execution (single-binding form only).
	Explain string `json:"explain,omitempty"`
}

type reloadRequest struct {
	Path string `json:"path"`
}

type updateRequest struct {
	Update string `json:"update"`
}

type reloadResponse struct {
	Generation uint64 `json:"generation"`
	Triples    int    `json:"triples"`
}

type healthResponse struct {
	Status     string `json:"status"`
	Triples    int    `json:"triples"`
	Generation uint64 `json:"generation"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API as an http.Handler, suitable for
// cmd/served and for in-process httptest servers.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("POST /execute", s.handleExecute)
	mux.HandleFunc("POST /reload", s.handleReload)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace/recent", s.handleTraceRecent)
	return mux
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	b, err := parseBindingMap(req.Bindings)
	if err != nil {
		writeError(w, badInput(err))
		return
	}
	ro, err := parseExplain(req.Explain)
	if err != nil {
		writeError(w, err)
		return
	}
	out, err := s.QueryWith(r.Context(), req.Query, b, ro)
	if err != nil {
		writeError(w, err)
		return
	}
	writeResults(w, []*Outcome{out}, req.MaxRows, false)
}

// parseExplain maps a request's explain field to RunOptions.
func parseExplain(v string) (RunOptions, error) {
	switch v {
	case "":
		return RunOptions{}, nil
	case "analyze":
		return RunOptions{Analyze: true}, nil
	default:
		return RunOptions{}, badInput(fmt.Errorf("unknown explain mode %q (want \"analyze\")", v))
	}
}

func (s *Service) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	p, err := s.Prepare(req.Name, req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	params := make([]string, len(p.Params))
	for i, pr := range p.Params {
		params[i] = string(pr)
	}
	writeJSON(w, http.StatusOK, prepareResponse{Name: p.Name, Params: params, Text: p.Text})
}

func (s *Service) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req executeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	p, ok := s.Lookup(req.Name)
	if !ok {
		writeError(w, badInput(fmt.Errorf("unknown prepared template %q", req.Name)))
		return
	}
	if len(req.Batch) > 0 && req.Bindings != nil {
		writeError(w, badInput(errors.New("use either bindings or batch, not both")))
		return
	}
	ro, err := parseExplain(req.Explain)
	if err != nil {
		writeError(w, err)
		return
	}
	if len(req.Batch) == 0 {
		// The single-binding form returns the bare result object.
		b, err := parseBindingMap(req.Bindings)
		if err != nil {
			writeError(w, badInput(err))
			return
		}
		out, err := s.ExecuteWith(r.Context(), p, b, ro)
		if err != nil {
			writeError(w, err)
			return
		}
		writeResults(w, []*Outcome{out}, req.MaxRows, false)
		return
	}
	if ro.Analyze {
		writeError(w, badInput(errors.New("explain=analyze supports single executions only")))
		return
	}
	bindings := make([]sparql.Binding, len(req.Batch))
	for i, m := range req.Batch {
		b, err := parseBindingMap(m)
		if err != nil {
			writeError(w, badInput(fmt.Errorf("batch item %d: %w", i, err)))
			return
		}
		bindings[i] = b
	}
	outs, err := s.ExecuteBatch(r.Context(), p, bindings)
	if err != nil {
		writeError(w, err)
		return
	}
	writeResults(w, outs, req.MaxRows, true)
}

func (s *Service) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.opts.AllowReload {
		writeJSON(w, http.StatusForbidden, errorResponse{Error: "reload disabled (enable with Options.AllowReload / served -allow-reload)"})
		return
	}
	var req reloadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		writeError(w, badInput(errors.New("missing path")))
		return
	}
	gen, triples, err := s.Reload(req.Path)
	if err != nil {
		// A path the operator got wrong is a client error; an unreadable or
		// corrupt file is a server-side data problem and stays a 500.
		if errors.Is(err, fs.ErrNotExist) {
			err = badInput(err)
		}
		writeError(w, fmt.Errorf("reload %s: %w", req.Path, err))
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{Generation: gen, Triples: triples})
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !s.opts.AllowUpdate {
		writeJSON(w, http.StatusForbidden, errorResponse{Error: "updates disabled (enable with Options.AllowUpdate / served -allow-update)"})
		return
	}
	var req updateRequest
	if !decodeBodyLimit(w, r, &req, maxUpdateBodyBytes) {
		return
	}
	if req.Update == "" {
		writeError(w, badInput(errors.New("missing update")))
		return
	}
	res, err := s.Update(r.Context(), req.Update)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// traceRecentResponse is the GET /trace/recent payload: the lifetime
// retained-trace count plus up to n retained traces, newest first.
type traceRecentResponse struct {
	Total  uint64            `json:"total"`
	Traces []*obs.QueryTrace `json:"traces"`
}

func (s *Service) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, badInput(fmt.Errorf("invalid n %q: %w", v, err)))
			return
		}
		n = parsed
	}
	traces := s.ring.Recent(n)
	if traces == nil {
		traces = []*obs.QueryTrace{}
	}
	writeJSON(w, http.StatusOK, traceRecentResponse{Total: s.ring.Total(), Traces: traces})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:     "ok",
		Triples:    s.Store().Len(),
		Generation: s.Generation(),
	})
}

// parseBindingMap converts the JSON binding map (param name -> N-Triples
// term) into a sparql.Binding.
func parseBindingMap(m map[string]string) (sparql.Binding, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(sparql.Binding, len(m))
	for name, src := range m {
		t, err := rdf.ParseTerm(src)
		if err != nil {
			return nil, fmt.Errorf("binding %s: %w", name, err)
		}
		out[sparql.Param(name)] = t
	}
	return out, nil
}

// maxBodyBytes caps request bodies: query texts and binding batches are
// small, and an unbounded body would let clients buy unbounded decode work
// before admission control sees the request. Updates carry bulk triple
// data, so /update gets its own, larger cap.
const (
	maxBodyBytes       = 1 << 20
	maxUpdateBodyBytes = 16 << 20
)

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	return decodeBodyLimit(w, r, dst, maxBodyBytes)
}

func decodeBodyLimit(w http.ResponseWriter, r *http.Request, dst any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, badInput(fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit)))
			return false
		}
		writeError(w, badInput(fmt.Errorf("invalid request body: %w", err)))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps service errors onto HTTP statuses: overload to 429 (with
// a Retry-After hint), request errors to 400, everything else to 500. A
// cancelled client gets no response body (it is gone).
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client dropped the request; nothing useful to write.
		writeJSON(w, statusClientClosedRequest, errorResponse{Error: err.Error()})
	case IsInputError(err):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// statusClientClosedRequest is nginx's non-standard 499, the conventional
// code for "client closed request".
const statusClientClosedRequest = 499
