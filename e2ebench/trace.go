package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
)

// The traced run records spans from the benchmark's own files, around
// the calls into each layer's public API. Nothing inside the program is
// instrumented.

// span is one timed call at a layer boundary.
type span struct {
	ID     int       `json:"id"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"`          // ID of the causing span, -1 for none
	ReqID  string    `json:"req,omitempty"`   // links client and server spans of one request
	Label  string    `json:"label,omitempty"` // replica address where several serve one name
	N      int       `json:"n,omitempty"`     // work items handled, e.g. rows predicted
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// aggregate is a call count and total time for calls too many to keep
// one span each (per-query oracle calls).
type aggregate struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// tracer keeps spans in memory until the run writes them out. When
// disabled it records nothing, so the same wrappers can stay installed
// across untraced and traced measurement windows.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	aggs  map[string]*aggregate
}

func newTracer() *tracer { return &tracer{aggs: map[string]*aggregate{}} }

// enabled reports whether spans are being recorded; a nil tracer never
// records.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its ID, or -1 while disabled.
func (t *tracer) begin(name string, parent int, reqID, label string) int {
	if !t.enabled() {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, ReqID: reqID, Label: label})
	return id
}

// end closes the span begun as id; -1 is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count sets the work-item count of span id; -1 is ignored.
func (t *tracer) count(id, n int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].N = n
	t.mu.Unlock()
}

// add folds one call of d into the named aggregate.
func (t *tracer) add(name string, d time.Duration) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	a := t.aggs[name]
	if a == nil {
		a = &aggregate{}
		t.aggs[name] = a
	}
	a.Count++
	a.Total += d
	t.mu.Unlock()
}

// mark records an instant (a zero-length span), e.g. an epoch boundary.
func (t *tracer) mark(name string, parent int) { t.end(t.begin(name, parent, "", "")) }

// snapshot copies the spans and aggregates recorded so far.
func (t *tracer) snapshot() ([]span, map[string]aggregate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	aggs := make(map[string]aggregate, len(t.aggs))
	for k, a := range t.aggs {
		aggs[k] = *a
	}
	return append([]span(nil), t.spans...), aggs
}

// write dumps every span as one JSON line, then the aggregates.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans, aggs := t.snapshot()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]any{"aggregates": aggs}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// children returns the spans whose parent is id and whose name is one
// of names.
func children(spans []span, id int, names ...string) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id && slices.Contains(names, s.Name) {
			out = append(out, s)
		}
	}
	return out
}

func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// tracedClassifier wraps the NN classifier with spans around Fit,
// scoring and batched prediction. It implements core.DatasetClassifier
// like the classifier it wraps, so core.Train keeps the packed
// FitDataset/PredictDataset path instead of dropping to Rows().
// parent is the span new spans hang under; the caller sets it before
// each phase (the classifier is used from one goroutine).
type tracedClassifier struct {
	c      *core.NNClassifier
	tr     *tracer
	parent int
}

var _ core.DatasetClassifier = (*tracedClassifier)(nil)

func (t *tracedClassifier) Name() string { return t.c.Name() }

func (t *tracedClassifier) Fit(x [][]float64, y []int) error {
	defer t.tr.end(t.tr.begin("nn.fit", t.parent, "", ""))
	return t.c.Fit(x, y)
}

func (t *tracedClassifier) Predict(x []float64) int { return t.c.Predict(x) }

func (t *tracedClassifier) PredictBatch(x [][]float64) []int {
	id := t.tr.begin("core.predict_batch", t.parent, "", "")
	out := t.c.PredictBatch(x)
	t.tr.end(id)
	t.tr.count(id, len(x))
	return out
}

func (t *tracedClassifier) FitDataset(d *core.Dataset) error {
	defer t.tr.end(t.tr.begin("nn.fit", t.parent, "", ""))
	return t.c.FitDataset(d)
}

func (t *tracedClassifier) PredictDataset(d *core.Dataset) []int {
	defer t.tr.end(t.tr.begin("nn.predict_dataset", t.parent, "", ""))
	return t.c.PredictDataset(d)
}

// tracedOracle times every Query. At 2^14.3 queries a game a span per
// query would dominate memory, so queries fold into one aggregate.
type tracedOracle struct {
	o  core.Oracle
	tr *tracer
}

func (t tracedOracle) Query(r *prng.Rand, class int) []float64 {
	start := time.Now()
	x := t.o.Query(r, class)
	t.tr.add("core.oracle", time.Since(start))
	return x
}

// requestIDHeader links a client span to the handler span it caused.
const requestIDHeader = "X-Request-ID"

// requestKind maps an API path to its request kind, "" for paths that
// are not classify or distinguish (probes, scrapes, admissions).
func requestKind(path string) string {
	switch {
	case strings.HasSuffix(path, "/v1/classify"):
		return "classify"
	case strings.HasSuffix(path, "/v1/distinguish"):
		return "distinguish"
	}
	return ""
}

// traceHandler spans every classify/distinguish request h serves as
// "<layer>.<kind>", linked to the client by X-Request-ID when the
// caller sent one.
func traceHandler(tr *tracer, layer, label string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := requestKind(r.URL.Path)
		if kind == "" {
			h.ServeHTTP(w, r)
			return
		}
		defer tr.end(tr.begin(layer+"."+kind, -1, r.Header.Get(requestIDHeader), label))
		h.ServeHTTP(w, r)
	})
}

// traceTransport spans each router→replica classify/distinguish call
// from request write until the relayed body is closed. The router
// forwards only the body, so these spans carry no request ID.
type traceTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if requestKind(req.URL.Path) == "" {
		return t.base.RoundTrip(req)
	}
	id := t.tr.begin("cluster.router.forward", -1, "", req.URL.Host)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

// endOnClose ends a span once, when the body it wraps is closed.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}
