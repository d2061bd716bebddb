package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/prng"
	"repro/internal/serve"
)

// The serving workloads run cmd/served's defaults, in process.
var (
	servedScheduler = serve.SchedulerConfig{MaxBatch: 256, MaxDelay: 2 * time.Millisecond, Workers: 2, QueueDepth: 256}
	servedLedger    = ledger.Config{MaxBatch: 64, MaxDelay: 500 * time.Millisecond, Sync: true}
	servedRouter    = cluster.Config{Replication: 2, VNodes: 64, ProbeInterval: time.Second, FailAfter: 2}
)

const (
	servedTimeout = 5 * time.Second // cmd/served -timeout
	modelName     = "gimli6"

	// Request shapes: 64-row classify requests never fill a 256-row
	// batch, so they wait out the coalescing timer; 256-row distinguish
	// requests flush at once.
	classifyRowsPerReq    = 64
	distinguishRowsPerReq = 256
	classifyPool          = 48
	distinguishPool       = 16 // half cipher-oracle, half random-oracle
	planLen               = 1024
)

// replica is one serving process's worth of state: a ledgered
// serve.Server on a loopback listener.
type replica struct {
	url, logPath, anchorPath string
	srv                      *serve.Server
	led                      *ledger.Ledger
	hs                       *http.Server
	served                   chan error
}

// startReplica opens the ledger the way cmd/served does (sync on, with
// an anchor file, in a fresh directory) and serves on 127.0.0.1:0. A
// non-nil tr wraps the handler with spans labelled by the replica URL.
func startReplica(dir string, tr *tracer) (*replica, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &replica{logPath: filepath.Join(dir, "ledger.log"), anchorPath: filepath.Join(dir, "ledger.anchor")}
	cfg := servedLedger
	cfg.AnchorPath = r.anchorPath
	led, err := ledger.Open(r.logPath, cfg)
	if err != nil {
		return nil, err
	}
	r.led = led
	r.srv = serve.New(serve.Config{Scheduler: servedScheduler, RequestTimeout: servedTimeout, Ledger: led})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Close()
		led.Close()
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	var h http.Handler = r.srv.Handler()
	if tr != nil {
		h = traceHandler(tr, "serve.handler", r.url, h)
	}
	r.hs = &http.Server{Handler: h}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// stop drains the replica as cmd/served does on SIGTERM, then closes
// the ledger, which seals what is pending.
func (r *replica) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	<-r.served
	r.srv.Close()
	if cerr := r.led.Close(); err == nil {
		err = cerr
	}
	return err
}

// verify replays the closed ledger against its anchor file and checks
// it holds exactly want records.
func (r *replica) verify(want uint64) error {
	a, err := ledger.LoadAnchorFile(r.anchorPath)
	if err != nil {
		return err
	}
	st, err := ledger.VerifyLogFile(r.logPath, &a)
	if err != nil {
		return err
	}
	if st.Records != want {
		return fmt.Errorf("ledger %s holds %d records, want %d (admissions + distinguish served)", r.url, st.Records, want)
	}
	return nil
}

// stack is one serving deployment: one replica (serve) or a router over
// two (routed).
type stack struct {
	replicas []*replica
	router   *cluster.Router
	rhs      *http.Server
	rserved  chan error
	url      string         // where clients send
	admitted map[string]int // replica URL → admissions ledgered
	owners   []string       // routed: the model's owners, primary first
}

// stop drains the router first, then every replica.
func (s *stack) stop() error {
	var errs []error
	if s.rhs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.rhs.Shutdown(ctx))
		cancel()
		<-s.rserved
		s.router.Stop()
	}
	for _, r := range s.replicas {
		errs = append(errs, r.stop())
	}
	return errors.Join(errs...)
}

// verifyLedgers checks every replica's ledger after stop: it replays
// against its anchor and holds admissions plus distinguish requests
// served by that replica.
func (s *stack) verifyLedgers(distinguished map[string]int) error {
	var errs []error
	for _, r := range s.replicas {
		errs = append(errs, r.verify(uint64(s.admitted[r.url]+distinguished[r.url])))
	}
	return errors.Join(errs...)
}

// newClient is a load-generator client with its own connection pool, so
// it never shares connections with the router's client.
func newClient(conns int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: t, Timeout: 2 * servedTimeout}
}

// deploy starts the stack and admits the model saved at path: through
// Server.Admit for one replica (cmd/served's -model preload), through
// the router's POST /models for the routed pair.
func deploy(dir string, routed bool, path string, tr *tracer, client *http.Client) (*stack, error) {
	n := 1
	if routed {
		n = 2
	}
	s := &stack{admitted: map[string]int{}}
	var urls []string
	for i := 0; i < n; i++ {
		r, err := startReplica(filepath.Join(dir, fmt.Sprintf("replica%d", i)), tr)
		if err != nil {
			return nil, errors.Join(err, s.stop())
		}
		s.replicas = append(s.replicas, r)
		urls = append(urls, r.url)
	}
	if !routed {
		r := s.replicas[0]
		if _, _, err := r.srv.Admit(modelName, path); err != nil {
			return nil, errors.Join(err, s.stop())
		}
		s.admitted[r.url] = 1
		s.url = r.url
		return s, nil
	}
	cfg := servedRouter
	cfg.Replicas = urls
	cfg.Client = &http.Client{Timeout: servedTimeout}
	if tr != nil {
		cfg.Client.Transport = traceTransport{base: http.DefaultTransport, tr: tr}
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	rt.Start()
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = traceHandler(tr, "cluster.router.handler", "", h)
	}
	s.router, s.rhs, s.rserved = rt, &http.Server{Handler: h}, make(chan error, 1)
	go func() { s.rserved <- s.rhs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()

	body, _ := json.Marshal(map[string]string{"name": modelName, "path": path})
	resp, err := client.Post(s.url+"/models", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	defer resp.Body.Close()
	var ack struct {
		Owners []struct {
			Replica string `json:"replica"`
			Version int    `json:"version"`
			Error   string `json:"error"`
		} `json:"owners"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK {
		return nil, errors.Join(fmt.Errorf("routed admission: HTTP %d, %v", resp.StatusCode, err), s.stop())
	}
	for _, o := range ack.Owners {
		s.admitted[o.Replica]++
		s.owners = append(s.owners, o.Replica)
	}
	return s, nil
}

// request is one pre-encoded request body and the answer it must get.
type request struct {
	kind    string // "classify" or "distinguish"
	body    []byte
	classes []int  // classify: offline PredictBatch on the same rows
	verdict string // distinguish: the oracle the rows came from
}

// buildPlan draws the request bodies from seed and returns the request
// sequence both clients replay. Classify requests carry 64
// cipher-oracle rows as JSON float arrays, the format the README
// documents, with their classes from offline PredictBatch. Distinguish
// requests carry 256 hex rows with labels, all from one oracle: half
// the pool cipher, half random. The plan puts one distinguish at a
// seeded place in every four requests.
func buildPlan(s core.Scenario, c *core.NNClassifier, seed uint64) ([]*request, error) {
	r := prng.NewStream(seed, 3)
	t := s.Classes()
	var cls, dis []*request
	for i := 0; i < classifyPool; i++ {
		rows := make([][]float64, classifyRowsPerReq)
		for j := range rows {
			rows[j] = s.Sample(r, j%t)
		}
		body, err := json.Marshal(map[string]any{"model": modelName, "rows": rows})
		if err != nil {
			return nil, err
		}
		cls = append(cls, &request{kind: "classify", body: body, classes: c.PredictBatch(rows)})
	}
	for i := 0; i < distinguishPool; i++ {
		var o core.Oracle = core.CipherOracle{S: s}
		verdict := "CIPHER"
		if i%2 == 1 {
			o, verdict = core.RandomOracle{S: s}, "RANDOM"
		}
		hex := make([]string, distinguishRowsPerReq)
		labels := make([]int, distinguishRowsPerReq)
		for j := range hex {
			labels[j] = j % t
			hex[j] = bits.Hex(bits.FloatsToBytes(o.Query(r, labels[j])))
		}
		body, err := json.Marshal(map[string]any{"model": modelName, "hex": hex, "labels": labels})
		if err != nil {
			return nil, err
		}
		dis = append(dis, &request{kind: "distinguish", body: body, verdict: verdict})
	}
	var plan []*request
	for len(plan) < planLen {
		at := r.Intn(4)
		for k := 0; k < 4; k++ {
			if k == at {
				plan = append(plan, dis[r.Intn(len(dis))])
			} else {
				plan = append(plan, cls[r.Intn(len(cls))])
			}
		}
	}
	return plan, nil
}

// result is one completed client request.
type result struct {
	kind     string
	ms       float64
	ok       bool
	servedBy string
}

// send posts q and checks the answer. The round trip runs from request
// creation until the response body is read; checking is not timed.
func send(client *http.Client, url string, q *request, reqID string) (result, error) {
	res := result{kind: q.kind}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/"+q.kind, bytes.NewReader(q.body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		res.ms = ms(time.Since(start))
		return res, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.ms = ms(time.Since(start))
	res.servedBy = resp.Header.Get("X-Served-By")
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("%s: HTTP %d: %s", q.kind, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var out struct {
		Classes   []int  `json:"classes"`
		Verdict   string `json:"verdict"`
		LedgerSeq uint64 `json:"ledgerSeq"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return res, fmt.Errorf("%s: decoding answer: %w", q.kind, err)
	}
	switch q.kind {
	case "classify":
		if !slices.Equal(out.Classes, q.classes) {
			return res, fmt.Errorf("classify: served classes differ from offline PredictBatch")
		}
	case "distinguish":
		if out.Verdict != q.verdict {
			return res, fmt.Errorf("distinguish: verdict %s on %s-oracle rows", out.Verdict, q.verdict)
		}
		if out.LedgerSeq == 0 {
			return res, fmt.Errorf("distinguish: verdict carries no ledger sequence number")
		}
	}
	res.ok = true
	return res, nil
}

// load runs closed-loop clients against url for d: each sends its next
// request only after the previous answer arrived, walking the plan from
// its own offset (cursor keeps the place across windows). With tr on,
// each request is spanned and carries an X-Request-ID.
func load(client *http.Client, url string, plan []*request, cursor []int, d time.Duration, tr *tracer, ops *tally, errs *errorLog) []result {
	deadline := time.Now().Add(d)
	out := make([][]result, len(cursor))
	var wg sync.WaitGroup
	for c := range cursor {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			offset := c * len(plan) / len(cursor)
			for time.Now().Before(deadline) {
				n := cursor[c]
				cursor[c]++
				q := plan[(offset+n)%len(plan)]
				reqID := ""
				if tr.enabled() {
					reqID = "c" + strconv.Itoa(c) + "-" + strconv.Itoa(n)
				}
				ops.sent(q.kind)
				id := tr.begin("http.client."+q.kind, -1, reqID, "")
				res, err := send(client, url, q, reqID)
				tr.end(id)
				ops.done(q.kind, res.ok)
				if err != nil {
					errs.add(err)
				}
				out[c] = append(out[c], res)
			}
		}(c)
	}
	wg.Wait()
	var all []result
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// scrape reads a /metrics page into series → value.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// seriesDelta sums after−before over every series of metric name,
// keyed by the replica label ("" where the page has none).
func seriesDelta(before, after map[string]float64, name string) map[string]float64 {
	out := map[string]float64{}
	for series, v := range after {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		out[replicaLabel(labels)] += v - before[series]
	}
	return out
}

func replicaLabel(labels string) string {
	const key = `replica="`
	i := strings.Index(labels, key)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key):]
	return rest[:strings.IndexByte(rest, '"')]
}

func total(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// errorLog keeps the first few distinct failures for the report.
type errorLog struct {
	mu   sync.Mutex
	seen map[string]int
}

func (e *errorLog) add(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen == nil {
		e.seen = map[string]int{}
	}
	e.seen[err.Error()]++
}

func (e *errorLog) lines() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for msg, n := range e.seen {
		out = append(out, fmt.Sprintf("%d× %s", n, msg))
	}
	slices.Sort(out)
	return out
}
