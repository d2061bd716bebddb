package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The handler fuzz targets post arbitrary bodies to /v1/classify and
// /v1/distinguish and require that the server never panics, answers
// with one of the statuses a client error or a success can produce
// (200, 400, 404, 413), and that a 200 accounts for every row of the
// request.

// fuzzHandler serves the shared speck-4r test model with a 32-row cap,
// so the 413 path is reachable with small bodies, and a 1 µs coalescing
// delay, so accepted requests return quickly.
func fuzzHandler(f *testing.F) http.Handler {
	path, err := testModel()
	if err != nil {
		f.Fatalf("training test model: %v", err)
	}
	srv := New(Config{Scheduler: SchedulerConfig{MaxBatch: 32, MaxDelay: time.Microsecond, Workers: 1}})
	if _, err := srv.Registry().Load("speck4", path); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	return srv.Handler()
}

// addSeeds adds well-formed float and hex requests and a spread of
// malformed ones to the corpus.
func addSeeds(f *testing.F) {
	bitRow := make([]float64, 32)
	bitRow[3], bitRow[17] = 1, 1
	for _, req := range []classifyRequest{
		{Model: "speck4", Rows: [][]float64{bitRow, make([]float64, 32)}, Labels: []int{0, 1}},
		{Model: "speck4", Hex: []string{rowToHex(bitRow), "00000000"}, Labels: []int{1, 0}, Sigmas: 2},
		{Model: "speck4", Hex: make([]string, 33)},
		{Model: "speck4", Rows: [][]float64{{0, 0.5}}},
		{Model: "nope", Rows: [][]float64{bitRow}},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{"", "not json", "{}", `{"model":"speck4","hex":["zz"]}`, `{"model":"speck4","rows":[[1]]}{`} {
		f.Add([]byte(s))
	}
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

// requestRows decodes body as the server does and returns its row
// count.
func requestRows(t *testing.T, body []byte) int {
	t.Helper()
	var req classifyRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("server accepted a body that does not decode: %v", err)
	}
	return max(len(req.Rows), len(req.Hex))
}

func FuzzClassifyRequest(f *testing.F) {
	h := fuzzHandler(f)
	addSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(t, h, "/v1/classify", body)
		if rec.Code != http.StatusOK {
			return
		}
		var resp classifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v", err)
		}
		if n := requestRows(t, body); len(resp.Classes) != n {
			t.Fatalf("%d classes for %d rows", len(resp.Classes), n)
		}
		for i, c := range resp.Classes {
			if c < 0 || c > 1 {
				t.Fatalf("row %d: class %d outside the model's 2 classes", i, c)
			}
		}
	})
}

func FuzzDistinguishRequest(f *testing.F) {
	h := fuzzHandler(f)
	addSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(t, h, "/v1/distinguish", body)
		if rec.Code != http.StatusOK {
			return
		}
		var resp distinguishResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v", err)
		}
		if n := requestRows(t, body); resp.Queries != n {
			t.Fatalf("verdict scored %d queries for %d rows", resp.Queries, n)
		}
		switch resp.Verdict {
		case "CIPHER", "RANDOM", "INCONCLUSIVE":
		default:
			t.Fatalf("verdict %q", resp.Verdict)
		}
	})
}
