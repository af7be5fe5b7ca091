package service

import (
	"context"
	"sync"

	"repro/internal/sparql"
	"repro/internal/workload"
)

// WorkloadExecutor adapts the service to workload.Executor, so the
// benchmark workloads can be driven through the full service path —
// prepared templates, admission control, shared plan cache — and compared
// apples-to-apples against the direct workload.Runner path. Templates are
// prepared once, keyed by canonical text; for the measurements to be
// comparable to a Runner with the same exec options, configure the service
// with the same Options.Exec (in particular EarlyStop off, since EarlyStop
// changes the Work/Cout accounting).
type WorkloadExecutor struct {
	svc *Service
	ctx context.Context

	mu     sync.Mutex
	byText map[string]*Prepared
}

// WorkloadExecutor returns an adapter executing through s under ctx (nil
// means context.Background()).
func (s *Service) WorkloadExecutor(ctx context.Context) *WorkloadExecutor {
	if ctx == nil {
		ctx = context.Background()
	}
	return &WorkloadExecutor{svc: s, ctx: ctx, byText: make(map[string]*Prepared)}
}

// ExecuteTemplate implements workload.Executor through the service path.
func (w *WorkloadExecutor) ExecuteTemplate(tmpl *sparql.Query, b sparql.Binding) (workload.Measurement, error) {
	text := tmpl.String()
	w.mu.Lock()
	p, ok := w.byText[text]
	if !ok {
		p = newPrepared(text, text, tmpl)
		w.byText[text] = p
	}
	w.mu.Unlock()
	out, err := w.svc.Execute(w.ctx, p, b)
	if err != nil {
		return workload.Measurement{}, err
	}
	return workload.Measurement{
		Binding:   b,
		Runtime:   out.Result.Duration,
		Work:      out.Result.Work,
		Cout:      out.Result.Cout,
		EstCost:   out.Plan.EstCost,
		Rows:      len(out.Result.Rows),
		Signature: out.Plan.Signature,
	}, nil
}
