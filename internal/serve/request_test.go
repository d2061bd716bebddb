package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// jsonRow renders a float row as the JSON array of its bits, spelling
// cell j as spell[j] where one is given.
func jsonRow(row []float64, spell map[int]string) string {
	cells := make([]string, len(row))
	for j, v := range row {
		cells[j] = fmt.Sprint(v)
		if s, ok := spell[j]; ok {
			cells[j] = s
		}
	}
	return "[" + strings.Join(cells, ",") + "]"
}

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestRequestLanguage: the spellings encoding/json accepted stay
// accepted and mean the same rows — numbers equal to 0 or 1, keys in
// any case and order (a folded ſ too), a repeated key's last value,
// escaped strings, unknown members of any shape — and the served
// classes equal offline PredictBatch of those rows.
func TestRequestLanguage(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	d := offline(t)
	rows, labels := sampleRows(d, 404, 2)
	want := d.Classifier.PredictBatch(rows)
	spelled := make(map[int]string, len(rows[0]))
	for j, v := range rows[0] {
		if v == 1 {
			spelled[j] = []string{"1.0", "1e0", "1E+0", "10e-1"}[j%4]
		} else {
			spelled[j] = []string{"-0", "0E5", "0.000", "-0.0e-3"}[j%4]
		}
	}
	r0 := jsonRow(rows[0], spelled)
	r1 := jsonRow(rows[1], nil)
	hex1 := rowToHex(rows[1])
	bad := jsonRow(rows[1], map[int]string{3: "0.5"})

	for _, body := range []string{
		`{"model":"speck4","rows":[` + r0 + `,` + r1 + `]}`,
		`{"rows":[` + r0 + "," + r1 + `],"model":"speck4"}`,
		` {"MODEL":"speck4", "Rows" : [` + r0 + `, ` + r1 + `] } ` + "\n",
		`{"model":"nope","rows":[` + bad + `],"model":"speck4","rows":[` + r0 + `,` + r1 + `]}`,
		`{"model":"speck4","extra":{"a":[1,"x",null,true,{"b":-1.5e3}]},"rows":[` + r0 + `,` + r1 + `],"note":"é"}`,
		`{"model":"speck4","hex":[` + fmt.Sprintf("%q,%q", rowToHex(rows[0]), strings.ToUpper(hex1)) + `]}`,
		`{"model":"speck4","rows":null,"hex":["` + rowToHex(rows[0]) + `","` + fmt.Sprintf(`\u%04x`, hex1[0]) + hex1[1:] + `"]}`,
	} {
		code, out := postRaw(t, ts.URL+"/v1/classify", body)
		if code != http.StatusOK {
			t.Fatalf("body %s: status %d: %s", body, code, out)
		}
		var got classifyResponse
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Classes) != 2 || got.Classes[0] != want[0] || got.Classes[1] != want[1] {
			t.Fatalf("body %s: classes %v, offline PredictBatch %v", body, got.Classes, want)
		}
	}

	// Distinguish with the model last and sigmas under a folded key.
	body := fmt.Sprintf(`{"labels":[%d,%d],"ſigmas":2,"rows":[%s,%s],"model":"speck4"}`, labels[0], labels[1], r0, r1)
	if code, out := postRaw(t, ts.URL+"/v1/distinguish", body); code != http.StatusOK {
		t.Fatalf("distinguish: status %d: %s", code, out)
	}
}

// TestRequestTightenings: the two bodies encoding/json accepted but the
// request language refuses — a null where a bit or a label belongs, and
// data after the object — are 400s.
func TestRequestTightenings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	d := offline(t)
	rows, _ := sampleRows(d, 405, 1)
	nullBit := jsonRow(rows[0], map[int]string{0: "null"})
	row := jsonRow(rows[0], nil)
	for _, c := range []struct {
		url, body, msg string
	}{
		{"/v1/classify", `{"model":"speck4","rows":[` + nullBit + `]}`, "value null is not a bit"},
		{"/v1/distinguish", `{"model":"speck4","rows":[` + row + `],"labels":[null]}`, "label 0 is null"},
		{"/v1/classify", `{"model":"speck4","rows":[` + row + `]}garbage`, "after the JSON body"},
		{"/v1/distinguish", `{"model":"speck4","rows":[` + row + `],"labels":[0]} {}`, "after the JSON body"},
	} {
		code, out := postRaw(t, ts.URL+c.url, c.body)
		if code != http.StatusBadRequest || !strings.Contains(string(out), c.msg) {
			t.Errorf("%s %s: %d %s, want 400 mentioning %q", c.url, c.body, code, out, c.msg)
		}
	}
}

// TestRequestErrors covers the scanner's 400s for malformed bodies and
// values of the wrong type, and the checks resolve makes once the model
// is known.
func TestRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxBatch: 4}})
	d := offline(t)
	rows, _ := sampleRows(d, 406, 3)
	r0, r1 := jsonRow(rows[0], nil), jsonRow(rows[1], nil)
	h0 := rowToHex(rows[0])
	for _, c := range []struct {
		body string
		want int
		msg  string
	}{
		{``, 400, "unexpected end"},
		{`[1]`, 400, "not a JSON object"},
		{`{"model":"speck4","rows":[` + r0 + `]`, 400, "unexpected end"},
		{`{"model":"speck4" "rows":[]}`, 400, "after an object member"},
		{`{"model":"speck4",}`, 400, "object key"},
		{`{"model" "speck4"}`, 400, "after an object key"},
		{`{"model":5}`, 400, "model must be a string"},
		{`{"model":"speck4","rows":{}}`, 400, "must be arrays"},
		{`{"model":"speck4","rows":["0"]}`, 400, "row 0 is not an array"},
		{`{"model":"speck4","rows":[[true]]}`, 400, "row 0 column 0 is not a number"},
		{`{"model":"speck4","rows":[[1e400]]}`, 400, "row 0 column 0"},
		{`{"model":"speck4","rows":[[01]]}`, 400, "after an array element"},
		{`{"model":"speck4","rows":[[1,]]}`, 400, "not a number"},
		{`{"model":"speck4","rows":[[-]]}`, 400, "in a number"},
		{`{"model":"speck4","rows":[[1.]]}`, 400, "decimal point"},
		{`{"model":"speck4","rows":[[1e]]}`, 400, "exponent"},
		{`{"model":"speck4","rows":[[nul]]}`, 400, "literal null"},
		{`{"model":"speck4","hex":[0]}`, 400, "hex row 0 is not a string"},
		{`{"model":"speck4","hex":["` + h0 + "\x01" + `"]}`, 400, "string literal"},
		{`{"model":"speck4","hex":["\x"]}`, 400, "string escape"},
		{`{"model":"speck4","hex":["\u12"]}`, 400, "escape"},
		{`{"model":"speck4","hex":["` + h0, 400, "string literal"},
		{`{"model":"speck4","hex":["zz"]}`, 400, "invalid hex character"},
		{`{"model":"speck4","hex":["abc"]}`, 400, "odd-length"},
		{`{"model":"speck4","hex":["` + h0 + `00"]}`, 400, "hex row 0 has 5 bytes, want 4"},
		{`{"model":"speck4","hex":["` + h0 + `",null]}`, 400, "hex row 1 has 0 bytes"},
		{`{"model":"speck4","rows":[` + r0 + `,null]}`, 400, "row 1 has 0 features"},
		{`{"model":"speck4","rows":[` + r0 + `,[0]]}`, 400, "row 1 has 1 features"},
		{`{"model":"speck4","rows":[[0],` + r0 + `]}`, 400, "row 0 has 1 features"},
		{`{"model":"speck4","rows":[` + r0 + `],"hex":["` + h0 + `"]}`, 400, "exactly one"},
		{`{"model":"speck4","rows":[]}`, 400, "exactly one"},
		{`{"model":"speck4","rows":[` + strings.Repeat(r0+",", 4) + `[2]]}`, 413, "request has 5 rows"},
		{`{"model":"speck4","rows":[` + r0 + `],"labels":{}}`, 400, "labels must be an array"},
		{`{"model":"speck4","rows":[` + r0 + `],"labels":["0"]}`, 400, "label 0 is not a number"},
		{`{"model":"speck4","rows":[` + r0 + `],"labels":[1.5]}`, 400, "label 0"},
		{`{"model":"speck4","rows":[` + r0 + `],"sigmas":"3"}`, 400, "sigmas must be a number"},
		{`{"model":"speck4","rows":[` + r0 + `],"sigmas":1e999}`, 400, "sigmas"},
		{`{"model":"speck4","rows":[` + r0 + `],"x":[}`, 400, "beginning of a value"},
		{`{"model":"speck4","rows":[` + r0 + `],"x":tru}`, 400, "literal true"},
		{`{"model":"speck4","rows":[` + r0 + `],"x":fals}`, 400, "literal false"},
		{`null`, 404, "unknown model"},
	} {
		code, out := postRaw(t, ts.URL+"/v1/classify", c.body)
		if code != c.want || !strings.Contains(string(out), c.msg) {
			t.Errorf("body %s: %d %s, want %d mentioning %q", c.body, code, out, c.want, c.msg)
		}
	}
	// Labels past the batch cap are counted, not kept.
	body := `{"model":"speck4","rows":[` + r0 + `,` + r1 + `],"labels":[0,1,0,1,0,1,1]}`
	if code, out := postRaw(t, ts.URL+"/v1/distinguish", body); code != 400 || !strings.Contains(string(out), "7 labels for 2 rows") {
		t.Errorf("long labels: %d %s", code, out)
	}
}

// TestReadBodyError: a body that fails to read for a reason other than
// its size is a 400, not a 413.
func TestReadBodyError(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", io.MultiReader(strings.NewReader(`{"model"`), errReader{}))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "connection reset") {
		t.Fatalf("read error: %d %s, want 400", rec.Code, rec.Body)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, fmt.Errorf("connection reset") }

// TestRequestModel pins RequestModel on the bodies the router sees.
func TestRequestModel(t *testing.T) {
	for _, c := range []struct {
		body, want string
		err        bool
	}{
		{`{"model":"m","rows":[[0,1]]}`, "m", false},
		{`{"hex":["00"],"labels":[0],"model":"m"}`, "m", false},
		{`{"MoDeL":"a","model":"b"}`, "b", false},
		{`{"model":"a","model":null}`, "a", false},
		{`{"model":"é"}`, "é", false},
		{`null`, "", false},
		{`{}`, "", false},
		{`{"model":"m"}garbage`, "", true},
		{`{"model":1}`, "", true},
		{`"m"`, "", true},
		{`{"model":"m",`, "", true},
	} {
		got, err := RequestModel([]byte(c.body))
		if got != c.want || (err != nil) != c.err {
			t.Errorf("RequestModel(%s) = %q, %v; want %q, error %v", c.body, got, err, c.want, c.err)
		}
	}
}

// BenchmarkDecodeRequest times the request scanner alone on bodies
// shaped like e2ebench's serve workload: a 64-row classify of 128-bit
// float rows, and a 256-row hex distinguish with labels and the model
// last (json.Marshal of a map sorts the keys). The model-* runs time
// RequestModel, the router's peek, on the same bodies.
func BenchmarkDecodeRequest(b *testing.B) {
	r := prng.New(1)
	row := func() []float64 {
		f := make([]float64, 128)
		for j := range f {
			f[j] = float64(r.Uint64() & 1)
		}
		return f
	}
	classify := map[string]any{"model": "gimli6", "rows": func() [][]float64 {
		rows := make([][]float64, 64)
		for i := range rows {
			rows[i] = row()
		}
		return rows
	}()}
	hex, labels := make([]string, 256), make([]int, 256)
	for i := range hex {
		hex[i], labels[i] = bits.Hex(bits.FloatsToBytes(row())), i%2
	}
	distinguish := map[string]any{"model": "gimli6", "hex": hex, "labels": labels}
	for _, c := range []struct {
		name string
		req  map[string]any
		rows int
	}{{"classify-64x128", classify, 64}, {"distinguish-hex-256x128", distinguish, 256}} {
		body, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := scanRequest(body, 256)
				if err != nil {
					b.Fatal(err)
				}
				if n := max(req.rows.n, req.hex.n); n != c.rows || req.rows.err != nil || req.hex.err != nil {
					b.Fatalf("scanned %d rows, want %d", n, c.rows)
				}
			}
		})
		// The cluster router's peek at the same body.
		b.Run("model-"+c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m, err := RequestModel(body); m != "gimli6" || err != nil {
					b.Fatalf("RequestModel = %q, %v", m, err)
				}
			}
		})
	}
}
