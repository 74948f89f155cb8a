package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/kernels"
	"wise/internal/matrix"
	"wise/internal/session"
)

// wireResponse has the shape of wise-serve's JSON answers. The HTTP target
// decodes into it; the in-process target encodes it, so the replay's encode
// span marshals what the server marshals.
type wireResponse struct {
	Method         string  `json:"method"`
	Index          int     `json:"index"`
	PredictedClass int     `json:"predicted_class"`
	Classes        []int   `json:"classes,omitempty"`
	Degraded       bool    `json:"degraded"`
	Reason         string  `json:"reason,omitempty"`
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	NNZ            int     `json:"nnz"`
	Fingerprint    string  `json:"fingerprint,omitempty"`
	Stored         bool    `json:"stored,omitempty"`
	Iterations     int     `json:"iterations,omitempty"`
	YNorm          float64 `json:"y_norm,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

// target runs ops: over HTTP against wise-serve, or in-process for the
// reference pass and the traced replay.
type target interface {
	predict(ctx context.Context, body []byte) (wireResponse, error)
	upload(ctx context.Context, body []byte) (wireResponse, error)
	spmv(ctx context.Context, fp string, iterations int) (wireResponse, error)
}

// expected is what every answer about one pool matrix must say.
type expected struct {
	method string
	fp     string  // fingerprint of the pool body
	yNorm  float64 // ‖A^iterations·1‖₂ by the textbook serial CSR loop
}

// check reports why an answer is wrong, or nil. A degraded answer names the
// fallback method, so only non-degraded answers must name the expected
// one. fp is empty where the answer carries no fingerprint.
func check(kind opKind, a wireResponse, want expected, fp string) error {
	if !a.Degraded && a.Method != want.method {
		return fmt.Errorf("method %s, want %s", a.Method, want.method)
	}
	if fp != "" && a.Fingerprint != fp {
		return fmt.Errorf("fingerprint %s, want %s", a.Fingerprint, fp)
	}
	if kind == opSpMV && !(math.Abs(a.YNorm-want.yNorm) <= 1e-9*want.yNorm) {
		return fmt.Errorf("y_norm %v, want %v within 1e-9", a.YNorm, want.yNorm)
	}
	return nil
}

// local runs ops in-process through the public calls the server makes on
// the same request, with a span around each.
type local struct {
	model   *core.WISE
	store   *session.Store
	rec     *recorder
	workers int
}

// parse is the server's MatrixMarket ingest.
func (l *local) parse(body []byte) (*matrix.CSR, error) {
	l.rec.begin("matrix.parse")
	defer l.rec.end()
	return matrix.ReadMatrixMarketLimited(bytes.NewReader(body), matrix.DefaultReadLimits())
}

// choose is the server's prediction: Table-2 features, then tree inference.
func (l *local) choose(ctx context.Context, m *matrix.CSR) (features.Features, core.Selection, error) {
	l.rec.begin("features.extract")
	feat, err := features.ExtractCtx(ctx, m, l.model.FeatureCfg)
	l.rec.end()
	if err != nil {
		return features.Features{}, core.Selection{}, err
	}
	l.rec.begin("core.infer")
	defer l.rec.end()
	return feat, l.model.SelectFromFeatures(feat), nil
}

func (l *local) encode(resp wireResponse) error {
	l.rec.begin("serve.encode")
	defer l.rec.end()
	_, err := json.Marshal(resp)
	return err
}

func (l *local) predict(ctx context.Context, body []byte) (wireResponse, error) {
	m, err := l.parse(body)
	if err != nil {
		return wireResponse{}, err
	}
	_, sel, err := l.choose(ctx, m)
	if err != nil {
		return wireResponse{}, err
	}
	resp := selectionResponse(sel, m)
	return resp, l.encode(resp)
}

// upload prepares a session the way POST /matrix does: fingerprint, then a
// singleflight GetOrCreate whose build parses, predicts and converts.
func (l *local) upload(ctx context.Context, body []byte) (wireResponse, error) {
	l.rec.begin("session.fingerprint")
	fp := session.Fingerprint(body)
	l.rec.end()
	l.rec.begin("session.getorcreate")
	ent, _, err := l.store.GetOrCreate(ctx, fp, func(ctx context.Context) (*session.Prepared, error) {
		m, err := l.parse(body)
		if err != nil {
			return nil, err
		}
		feat, sel, err := l.choose(ctx, m)
		if err != nil {
			return nil, err
		}
		// CSR needs no conversion (Build wraps the parsed arrays), so only a
		// conversion to another layout records the nonzeros it moved.
		var moved int64
		if sel.Method.Kind != kernels.CSR {
			moved = int64(m.NNZ())
		}
		l.rec.begin("kernels.convert")
		f := kernels.Build(m, sel.Method, l.model.Mach.RowBlock)
		l.rec.endWork(moved)
		return &session.Prepared{M: m, Feat: feat, Sel: sel, Format: f}, nil
	})
	l.rec.end()
	if err != nil {
		return wireResponse{}, err
	}
	defer l.store.Release(ent)
	sel, _ := ent.Selection()
	resp := selectionResponse(sel, ent.Matrix())
	resp.Fingerprint, resp.Stored = fp, true
	return resp, l.encode(resp)
}

// spmv executes a prepared session the way POST /spmv by fingerprint does.
func (l *local) spmv(ctx context.Context, fp string, iterations int) (wireResponse, error) {
	l.rec.begin("session.acquire")
	ent, ok := l.store.Acquire(fp)
	l.rec.end()
	if !ok {
		return wireResponse{}, fmt.Errorf("unknown fingerprint %s", fp)
	}
	defer l.store.Release(ent)
	m := ent.Matrix()
	x := matrix.Ones(m.Cols)
	l.rec.begin("kernels.exec")
	y, err := l.store.Exec(ctx, ent, x, iterations, l.workers)
	l.rec.endWork(int64(m.NNZ()) * int64(iterations))
	if err != nil {
		return wireResponse{}, err
	}
	sel, _ := ent.Selection()
	resp := wireResponse{
		Method: sel.Method.String(), Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(),
		Fingerprint: fp, Iterations: iterations, YNorm: matrix.Norm2(y),
	}
	return resp, l.encode(resp)
}

func selectionResponse(sel core.Selection, m *matrix.CSR) wireResponse {
	return wireResponse{
		Method: sel.Method.String(), Index: sel.Index, PredictedClass: sel.PredictedClass,
		Classes: sel.Classes, Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(),
	}
}

// reference computes the expected answers of every pool matrix in-process:
// it uploads the body and executes it through a session store, as the
// server would, and checks the result against a chain of the textbook
// serial CSR SpMV — a kernel that disagrees fails the run before any load
// is sent. The same pass times the serial CSR kernel the per-layer metrics
// are quoted against, and the selected format against parallel CSR.
func reference(ctx context.Context, w *workload, model *core.WISE, bodies [][]byte, rec *recorder) ([]expected, error) {
	out := make([]expected, len(bodies))
	for i, body := range bodies {
		rec.beginOp("op.reference")
		e, err := referenceOne(ctx, w, model, body, rec)
		rec.end()
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s pool matrix %d (%s, %d rows): %w",
				w.name, i, w.pool[i].family, w.pool[i].rows, err)
		}
		out[i] = e
	}
	return out, nil
}

func referenceOne(ctx context.Context, w *workload, model *core.WISE, body []byte, rec *recorder) (expected, error) {
	// A store per matrix keeps one prepared session alive at a time; the
	// budget never evicts it.
	store, err := session.Open(session.Config{MaxBytes: math.MaxInt64, RowBlock: model.Mach.RowBlock})
	if err != nil {
		return expected{}, err
	}
	l := &local{model: model, store: store, rec: rec, workers: kernels.DefaultWorkers()}
	up, err := l.upload(ctx, body)
	if err != nil {
		return expected{}, err
	}
	got, err := l.spmv(ctx, up.Fingerprint, w.iterations)
	if err != nil {
		return expected{}, err
	}
	ent, ok := store.Acquire(up.Fingerprint)
	if !ok {
		return expected{}, fmt.Errorf("session %s evicted from an unbounded store", up.Fingerprint)
	}
	m := ent.Matrix()
	sel, _ := ent.Selection()
	store.Release(ent)
	want := expected{method: up.Method, fp: up.Fingerprint}
	want.yNorm = chain(m, w.iterations, rec, "kernels.csr_serial", func(y, x []float64) { m.SpMV(y, x) })
	if err := check(opSpMV, got, want, up.Fingerprint); err != nil {
		return expected{}, fmt.Errorf("kernel cross-check of %s through the session: %w", got.Method, err)
	}
	// The selected format and parallel CSR, both bare: their ratio is the
	// selection's speedup in real time.
	for _, k := range []struct {
		name   string
		method kernels.Method
	}{{"kernels.spmv_parallel", sel.Method}, {"kernels.csr_parallel", kernels.Method{Kind: kernels.CSR, Sched: kernels.Dyn}}} {
		f := kernels.Build(m, k.method, model.Mach.RowBlock)
		norm := chain(m, w.iterations, rec, k.name, func(y, x []float64) { f.SpMVParallel(y, x, l.workers) })
		if err := check(opSpMV, wireResponse{Method: want.method, YNorm: norm}, want, ""); err != nil {
			return expected{}, fmt.Errorf("kernel cross-check of %s: %w", k.method, err)
		}
	}
	return want, nil
}

// chain returns ‖A^iterations·1‖₂ computed by spmv, one span per multiply.
func chain(m *matrix.CSR, iterations int, rec *recorder, name string, spmv func(y, x []float64)) float64 {
	x, y := matrix.Ones(m.Cols), make([]float64, m.Rows)
	for k := 0; k < iterations; k++ {
		rec.begin(name)
		spmv(y, x)
		rec.endWork(int64(m.NNZ()))
		x, y = y, x
	}
	return matrix.Norm2(x)
}
