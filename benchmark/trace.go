package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"wise/internal/resilience"
)

// phase tags a span with the part of the traced run it belongs to.
type phase uint8

const (
	phaseRef      phase = iota // the reference pass over the pool
	phaseSetup                 // replayed set-up uploads and warm-up
	phaseMeasured              // replayed measured ops
)

func (p phase) String() string { return [...]string{"reference", "setup", "measured"}[p] }

// calls names the public function each stage span wraps. Op spans
// ("op.<kind>") wrap one whole op.
var calls = map[string]string{
	"matrix.parse":          "matrix.ReadMatrixMarketLimited",
	"session.fingerprint":   "session.Fingerprint",
	"features.extract":      "features.ExtractCtx",
	"core.infer":            "(*core.WISE).SelectFromFeatures",
	"kernels.convert":       "kernels.Build",
	"kernels.exec":          "(*session.Store).Exec", // its body is the Format.SpMVParallel chain
	"kernels.csr_serial":    "(*matrix.CSR).SpMV",
	"kernels.spmv_parallel": "kernels.Format.SpMVParallel", // the selected format
	"kernels.csr_parallel":  "kernels.Format.SpMVParallel", // CSR[Dyn]
	"session.getorcreate":   "(*session.Store).GetOrCreate",
	"session.acquire":       "(*session.Store).Acquire",
	"serve.encode":          "json.Marshal",
}

// span is one timed call. Spans of one op share its op id; parent indexes
// the enclosing span in the same recorder, -1 for an op span.
type span struct {
	name       string
	op         int64
	parent     int
	phase      phase
	work       int64 // nonzeros multiplied or moved, for kernel spans
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// layer is the span's layer: the name up to the first dot.
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// recorder keeps one worker's spans in memory. Calls nest, so open spans
// form a stack. A nil recorder records nothing: the untraced replay runs
// the same code with spans off.
type recorder struct {
	epoch time.Time
	tid   int
	phase phase
	ops   int64
	spans []span
	open  []int
}

func newRecorder(epoch time.Time, tid int, p phase) *recorder {
	return &recorder{epoch: epoch, tid: tid, phase: p}
}

func (r *recorder) setPhase(p phase) {
	if r != nil {
		r.phase = p
	}
}

// beginOp opens an op span under a fresh op id.
func (r *recorder) beginOp(name string) {
	if r == nil {
		return
	}
	r.ops++
	r.begin(name)
}

// begin opens a span inside the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{
		name: name, op: int64(r.tid)<<32 | r.ops, parent: parent, phase: r.phase,
		start: time.Since(r.epoch),
	})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *recorder) end() { r.endWork(0) }

// endWork closes the innermost open span, recording the nonzeros its
// kernel multiplied or its conversion moved.
func (r *recorder) endWork(nnz int64) {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].end = time.Since(r.epoch)
	r.spans[i].work = nnz
}

// selfTimes returns each span's duration minus the durations of its
// children.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// traceEvent is one Chrome trace-event "complete" event; chrome://tracing
// and Perfetto load a file of them.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args eventArgs `json:"args"`
}

type eventArgs struct {
	Op    int64  `json:"op"`
	Phase string `json:"phase"`
	Call  string `json:"call,omitempty"`
}

// writeChromeTrace writes every recorder's spans as Chrome trace-event
// JSON.
func writeChromeTrace(path string, recs []*recorder) error {
	var events []traceEvent
	for _, r := range recs {
		for _, s := range r.spans {
			events = append(events, traceEvent{
				Name: s.name, Cat: s.layer(), Ph: "X",
				TS:  float64(s.start) / float64(time.Microsecond),
				Dur: float64(s.dur()) / float64(time.Microsecond),
				PID: 1, TID: r.tid,
				Args: eventArgs{Op: s.op, Phase: s.phase.String(), Call: calls[s.name]},
			})
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return fmt.Errorf("benchmark: encoding trace: %w", err)
	}
	if err := resilience.AtomicWriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("benchmark: writing trace %s: %w", path, err)
	}
	return nil
}
