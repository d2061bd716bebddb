package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/stats"
)

// The handler fuzz targets are differential: every body goes to the
// server and to a reference decoder — the encoding/json decoding the
// handlers ran before the request scanner (refDecodeRows below, kept as
// it was) followed by offline PredictBatch. A 200 on either side must
// be a 200 on the other with the same classes, or the same verdict and
// accuracy; anything else must be a 4xx on both. The one allowed
// difference is a reference 200 that the server answers 400 because
// the body has a null where a bit or a label belongs, or data after
// the object (see tightened).

// classifyRequest is the body of /v1/classify and /v1/distinguish as
// encoding/json sees it: the reference decoder's target, and the shape
// the tests marshal their requests from.
type classifyRequest struct {
	Model  string      `json:"model"`
	Rows   [][]float64 `json:"rows,omitempty"`
	Hex    []string    `json:"hex,omitempty"`
	Labels []int       `json:"labels,omitempty"`
	Sigmas float64     `json:"sigmas,omitempty"`
}

// refDecodeRows is the reference decoder: the handlers' body decoding
// and row validation before the request scanner replaced them.
func (s *Server) refDecodeRows(w http.ResponseWriter, r *http.Request) (*Entry, *classifyRequest, [][]float64, bool) {
	var req classifyRequest
	if !DecodeBody(w, r, &req) {
		return nil, nil, nil, false
	}
	entry, ok := s.reg.Get(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q (GET /models lists loaded models)", req.Model)
		return nil, nil, nil, false
	}
	if (len(req.Rows) == 0) == (len(req.Hex) == 0) {
		writeError(w, http.StatusBadRequest, "exactly one of rows or hex must be non-empty")
		return nil, nil, nil, false
	}
	// Cap the batch before any row is validated or expanded.
	if n := max(len(req.Rows), len(req.Hex)); n > s.sched.MaxBatch() {
		writeError(w, http.StatusRequestEntityTooLarge, "request has %d rows, max %d per request (split the batch)",
			n, s.sched.MaxBatch())
		return nil, nil, nil, false
	}
	featLen := entry.FeatureLen()
	rows := req.Rows
	if len(req.Hex) > 0 {
		rows = make([][]float64, len(req.Hex))
		wantBytes := (featLen + 7) / 8
		for i, h := range req.Hex {
			b, err := bits.FromHex(h)
			if err != nil {
				writeError(w, http.StatusBadRequest, "hex row %d: %v", i, err)
				return nil, nil, nil, false
			}
			if len(b) != wantBytes {
				writeError(w, http.StatusBadRequest, "hex row %d has %d bytes, want %d (%d feature bits)",
					i, len(b), wantBytes, featLen)
				return nil, nil, nil, false
			}
			rows[i] = bits.ToFloats(make([]float64, 0, len(b)*8), b)[:featLen]
		}
	} else {
		for i, row := range rows {
			if len(row) != featLen {
				writeError(w, http.StatusBadRequest, "row %d has %d features, model %q wants %d",
					i, len(row), req.Model, featLen)
				return nil, nil, nil, false
			}
			for j, v := range row {
				if v != 0 && v != 1 {
					writeError(w, http.StatusBadRequest, "row %d column %d: value %v is not a bit (0 or 1)", i, j, v)
					return nil, nil, nil, false
				}
			}
		}
	}
	return entry, &req, rows, true
}

// refAnswer is the reference decoder's answer to one body.
type refAnswer struct {
	code     int
	classes  []int
	accuracy float64
	verdict  string
}

// reference answers body as the handlers did before the request
// scanner, with offline PredictBatch in place of the scheduler.
func reference(s *Server, d *core.Distinguisher, url string, body []byte) refAnswer {
	rec := httptest.NewRecorder()
	entry, req, rows, ok := s.refDecodeRows(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
	if !ok {
		return refAnswer{code: rec.Code}
	}
	classes := d.Classifier.PredictBatch(rows)
	if url == "/v1/classify" {
		return refAnswer{code: http.StatusOK, classes: classes}
	}
	t := entry.Classes()
	if len(req.Labels) != len(rows) {
		return refAnswer{code: http.StatusBadRequest}
	}
	for _, l := range req.Labels {
		if l < 0 || l >= t {
			return refAnswer{code: http.StatusBadRequest}
		}
	}
	sigmas := req.Sigmas
	if sigmas <= 0 {
		sigmas = 3
	}
	acc := stats.Accuracy(classes, req.Labels)
	verdict, err := stats.Decide(entry.Dist.Accuracy, t, acc, len(rows), sigmas)
	if err != nil {
		return refAnswer{code: http.StatusUnprocessableEntity}
	}
	return refAnswer{code: http.StatusOK, accuracy: acc, verdict: verdict.String()}
}

// tightened reports whether encoding/json accepts body while the
// request language refuses it: a null inside a row or inside labels of
// the value the decoder keeps, or non-space data after the object.
func tightened(body []byte) bool {
	var req struct {
		Rows   [][]*float64 `json:"rows"`
		Labels []*int       `json:"labels"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if dec.Decode(&req) != nil {
		return false
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return true
	}
	for _, row := range req.Rows {
		if slices.Contains(row, nil) {
			return true
		}
	}
	return slices.Contains(req.Labels, nil)
}

// fuzzServer serves the shared speck-4r test model with a 32-row cap,
// so the 413 path is reachable with small bodies, and a 1 µs coalescing
// delay, so accepted requests return quickly. It also returns the
// offline copy the reference answers come from.
func fuzzServer(f *testing.F) (*Server, *core.Distinguisher) {
	path, err := testModel()
	if err != nil {
		f.Fatalf("training test model: %v", err)
	}
	srv := New(Config{Scheduler: SchedulerConfig{MaxBatch: 32, MaxDelay: time.Microsecond, Workers: 1}})
	if _, err := srv.Registry().Load("speck4", path); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	d, err := core.LoadDistinguisherFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return srv, d
}

// bodySeeds returns well-formed float and hex requests and a spread of
// malformed ones: the spellings of 0 and 1 the language accepts, folded
// and repeated keys, a model placed last, a body over the 32-row cap,
// and the two bodies encoding/json accepts but the scanner refuses.
func bodySeeds(f *testing.F) [][]byte {
	bitRow := make([]float64, 32)
	bitRow[3], bitRow[17] = 1, 1
	var seeds [][]byte
	for _, req := range []classifyRequest{
		{Model: "speck4", Rows: [][]float64{bitRow, make([]float64, 32)}, Labels: []int{0, 1}},
		{Model: "speck4", Hex: []string{rowToHex(bitRow), "00000000"}, Labels: []int{1, 0}, Sigmas: 2},
		{Model: "speck4", Hex: make([]string, 33)},
		{Model: "speck4", Rows: [][]float64{{0, 0.5}}},
		{Model: "nope", Rows: [][]float64{bitRow}},
		{Model: "speck4", Rows: manyOf(bitRow, 33)},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	row := func(cells ...string) string {
		r := manyOf("0", 32)
		copy(r, cells)
		return "[" + strings.Join(r, ",") + "]"
	}
	for _, s := range []string{
		"", "not json", "{}", "null", `{"model":"speck4","hex":["zz"]}`, `{"model":"speck4","rows":[[1]]}{`,
		`{"model":"speck4","rows":[` + row("1.0", "1e0", "-0", "0E5", "1E-0") + `],"labels":[1]}`,
		`{"MODEL":"speck4","Rows":[` + row("1") + `],"ſigmas":2,"labels":[0]}`,
		`{"model":"nope","rows":[` + row("0.5") + `],"model":"speck4","rows":[` + row("1") + `]}`,
		`{"hex":["0a0b0c0d"],"labels":[1],"model":"speck4"}`,
		`{"model":"speck4","rows":[` + row("null") + `]}`,
		`{"model":"speck4","rows":[` + row() + `],"labels":[null]}`,
		`{"model":"speck4","rows":[` + row() + `],"labels":[0]}garbage`,
		`{"model":"speck4","hex":["00000000"],"labels":[0]}`,
		`{"model":null,"rows":[` + row() + `],"unknown":[{"a":[1,2,{"b":null}]}],"labels":[0]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func manyOf[T any](v T, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// post sends body to url through h and fails the fuzz run on any
// status outside 200/400/404/413.
func post(t *testing.T, h http.Handler, url string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
	}
	return rec
}

// differential posts body to url and checks the answer against the
// reference decoder's, decoding a 200 into resp.
func differential(t *testing.T, srv *Server, d *core.Distinguisher, url string, body []byte, resp any) (refAnswer, bool) {
	t.Helper()
	want := reference(srv, d, url, body)
	rec := post(t, srv.Handler(), url, body)
	switch {
	case rec.Code == http.StatusOK && want.code == http.StatusOK:
		if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v", err)
		}
		return want, true
	case rec.Code == http.StatusOK:
		t.Fatalf("body %q: served 200, reference decoder says %d", body, want.code)
	case want.code == http.StatusOK:
		if rec.Code != http.StatusBadRequest || !tightened(body) {
			t.Fatalf("body %q: served %d (%s), reference decoder says 200", body, rec.Code, rec.Body)
		}
	case want.code/100 != 4:
		t.Fatalf("body %q: reference decoder says %d", body, want.code)
	}
	return want, false
}

func FuzzClassifyRequest(f *testing.F) {
	srv, d := fuzzServer(f)
	for _, b := range bodySeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp classifyResponse
		want, ok := differential(t, srv, d, "/v1/classify", body, &resp)
		if ok && !slices.Equal(resp.Classes, want.classes) {
			t.Fatalf("body %q: served classes %v, offline PredictBatch %v", body, resp.Classes, want.classes)
		}
	})
}

func FuzzDistinguishRequest(f *testing.F) {
	srv, d := fuzzServer(f)
	for _, b := range bodySeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp distinguishResponse
		want, ok := differential(t, srv, d, "/v1/distinguish", body, &resp)
		if ok && (resp.Verdict != want.verdict || resp.Accuracy != want.accuracy) {
			t.Fatalf("body %q: served %s at %v, reference %s at %v",
				body, resp.Verdict, resp.Accuracy, want.verdict, want.accuracy)
		}
	})
}

// FuzzRequestModel holds the router's peek to json.Unmarshal into
// struct{ Model string }: the same error/no-error outcome on every body
// and, without an error, the same name.
func FuzzRequestModel(f *testing.F) {
	for _, b := range bodySeeds(f) {
		f.Add(b)
	}
	for _, s := range []string{
		`{"model":"a","model":"b"}`, `{"model":"a","model":null}`, `{"model":5}`, `{"Model":"\ud800x"}`,
		`{"x":[[[[]]]],"model":"a"} `, `[]`, `"model"`, "{\"model\":\"\xff\"}", `{"model":"a"`, `{"model":"a",}`,
		`{"model":"a","n":-01}`, `{"n":1.e5}`, `{"model":"\q"}`, "{\"model\":\"\t\"}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := RequestModel(body)
		var want struct{ Model string }
		werr := json.Unmarshal(body, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("body %q: RequestModel error %v, json.Unmarshal error %v", body, err, werr)
		}
		if err == nil && got != want.Model {
			t.Fatalf("body %q: RequestModel %q, json.Unmarshal %q", body, got, want.Model)
		}
	})
}

// TestRequestModelDepth: arrays nested to encoding/json's limit are
// skipped, one level deeper is an error, as in json.Unmarshal.
func TestRequestModelDepth(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		body := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"model":"m"}`
		got, err := RequestModel([]byte(body))
		var want struct{ Model string }
		werr := json.Unmarshal([]byte(body), &want)
		if (err == nil) != (werr == nil) || got != want.Model {
			t.Fatalf("depth %d: RequestModel = %q, %v; json.Unmarshal = %q, %v", depth+1, got, err, want.Model, werr)
		}
	}
	if _, err := RequestModel([]byte(`{"x":` + strings.Repeat("[", 2*maxDepth))); err == nil {
		t.Fatal("RequestModel accepted an unterminated body nested past the limit")
	}
}
