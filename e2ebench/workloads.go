package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	// A traced run alternates untraced and traced set-ups.
	setupReps       = 5
	tracedSetupReps = 4
	// clients is the closed-loop client count: one per CPU of the
	// 2-CPU reference machine.
	clients = 2
	// maxMeasure caps measuring so a run ends inside its time limit
	// even on a slow machine.
	maxMeasure = 120 * time.Second
)

// needed is the sample count at which percentile p has ten samples
// beyond it.
func needed(p float64) int { return int(math.Ceil(minBeyond * 100 / (100 - p))) }

// runner holds one benchmark run's inputs and what it measured.
type runner struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	dir      string  // scratch for models and ledgers, removed at the end
	tr       *tracer // nil unless traced
	ops      *tally
	errs     errorLog

	setup, setupTraced []float64 // seconds per set-up
	e2e, e2eTraced     map[string]float64
	samples            map[string]int // sample count behind each end-to-end metric
	samplesTraced      map[string]int
	layers             map[string]float64
	notes              []string
	identity           identity
}

// identity is what must repeat exactly across runs of one seed, traced
// or not.
type identity struct {
	ValAccuracy float64         `json:"val_accuracy"`
	Games       core.GameResult `json:"games"`
}

// check counts a correctness check as an operation: a failing check is
// a failed operation, never skipped.
func (r *runner) check(name string, err error) {
	r.ops.sent("check")
	r.ops.done("check", err == nil)
	if err != nil {
		r.errs.add(fmt.Errorf("check %q: %w", name, err))
	}
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// pctl reports percentile p of xs as metric name, refusing (and
// counting a failed check) when the sample cannot support it.
func (r *runner) pctl(m map[string]float64, n map[string]int, name string, xs []float64, p float64) {
	q, err := percentile(xs, p)
	r.check(name+" has ten samples beyond it", err)
	m[name] = q.Value
	n[name] = len(xs)
}

// layerPctl is pctl for per-layer diagnostics: an unsupported
// percentile reads 0 and is noted, not failed.
func (r *runner) layerPctl(name string, xs []float64, p float64) {
	q, err := percentile(xs, p)
	if err != nil {
		if len(xs) > 0 {
			r.note("%s not reported: %v", name, err)
		}
		r.layers[name] = 0
		return
	}
	r.layers[name] = q.Value
	r.note("%s = %.4g ms over n=%d", name, q.Value, q.N)
}

func (r *runner) checkIdentity(what string, got identity) {
	if r.identity == (identity{}) {
		r.identity = got
		return
	}
	var err error
	if got != r.identity {
		err = fmt.Errorf("%+v, first pass gave %+v", got, r.identity)
	}
	r.check(what+" repeats val_accuracy and GameResult", err)
}

// procStat is the process's CPU time and Go allocation counters.
type procStat struct {
	cpu      time.Duration
	allocs   uint64 // bytes
	gcCycles uint64
}

func readProc() procStat {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return procStat{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
	}
}

func (p procStat) sub(q procStat) procStat {
	return procStat{p.cpu - q.cpu, p.allocs - q.allocs, p.gcCycles - q.gcCycles}
}

func (p procStat) add(q procStat) procStat {
	return procStat{p.cpu + q.cpu, p.allocs + q.allocs, p.gcCycles + q.gcCycles}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// procLayers divides process counters over requests. They include the
// load generator running in the same process.
func (r *runner) procLayers(p procStat, requests int) {
	n := float64(max(requests, 1))
	r.layers["process.cpu_ms_per_req"] = ms(p.cpu) / n
	r.layers["go.alloc_kb_per_req"] = float64(p.allocs) / 1024 / n
	r.layers["go.gc_cycles"] = float64(p.gcCycles)
}

// gimli7 is Algorithm 2 in process: train the 7-round distinguisher,
// then an online session of three classify requests
// (Classifier.PredictBatch on 64 rows) per game (PlayGames at 2^14.3
// queries). Passes repeat until the time is spent and every percentile
// has its samples; a traced run alternates untraced and traced passes.
func (r *runner) gimli7() error {
	var s core.Scenario
	var reqs [][][]float64
	var seeds []uint64
	for k := 0; k < setupReps; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		var err error
		if s, err = newScenario(gimli7Model); err != nil {
			return err
		}
		reqs = classifyRows(s, r.seed, classifyPool, classifyRowsPerReq)
		seeds = gameSeeds(r.seed, gimli7Model.games)
		if err := warmUp(s, r.seed, reqs); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}

	var plain, traced []passResult
	var tracedProc procStat
	var firstClasses [][]int
	begin := time.Now()
	enough := func(ps []passResult) bool {
		n := 0
		for _, p := range ps {
			n += len(p.gameMS)
		}
		return n >= needed(90)
	}
	for i := 0; time.Since(begin) < maxMeasure; i++ {
		if time.Since(begin) >= r.seconds && enough(plain) && (!r.traced || enough(traced)) {
			break
		}
		var tr *tracer
		if r.traced && i%2 == 1 {
			tr = r.tr
			tr.on.Store(true)
		}
		before := readProc()
		p, err := runPass(s, gimli7Model, r.seed, seeds, reqs, tr, r.ops)
		used := readProc().sub(before)
		if tr != nil {
			tr.on.Store(false)
		}
		if err != nil {
			r.errs.add(err)
			break
		}
		var bad error
		if n := checkClassify(p.nn, reqs, p.classes); n > 0 {
			bad = fmt.Errorf("%d of %d requests differ", n, len(p.classes))
		}
		r.check("in-process classify equals one-row Predict", bad)
		if firstClasses == nil {
			firstClasses = p.classes
		} else {
			var err error
			if !slices.EqualFunc(p.classes, firstClasses, slices.Equal[[]int]) {
				err = errors.New("classes differ from the first pass")
			}
			r.check("classify answers repeat across passes", err)
		}
		r.checkIdentity("gimli7 pass", identity{p.accuracy, p.games})
		if tr != nil {
			traced = append(traced, p.kept())
			tracedProc = tracedProc.add(used)
		} else {
			plain = append(plain, p.kept())
		}
	}
	if len(plain) == 0 || (r.traced && len(traced) == 0) {
		return errors.New("no pass completed")
	}
	r.e2e, r.samples = r.passMetrics(plain)
	if r.traced {
		r.e2eTraced, r.samplesTraced = r.passMetrics(traced)
		spans, aggs := r.tr.snapshot()
		for k, v := range coreLayers(spans, aggs, traced) {
			r.layers[k] = v
		}
		requests := 0
		for _, p := range traced {
			requests += p.requests
		}
		r.procLayers(tracedProc, requests)
		r.noteCoreIdentities(traced)
	}
	return nil
}

// warmUp runs one small offline round and the classify requests so the
// first timed pass does not pay for lazy start-up: heap growth,
// first-touch pages, the forward-pass scratch. Its model is too small
// to be significant, so ErrNoDistinguisher is expected and ignored.
func warmUp(s core.Scenario, seed uint64, reqs [][][]float64) error {
	c, err := core.NewMLPClassifier(s.FeatureLen(), s.Classes(), experiments.QuickScale().Hidden, seed)
	if err != nil {
		return err
	}
	c.Epochs = 1
	_, err = core.Train(s, c, core.TrainConfig{TrainPerClass: 2048, ValPerClass: 512, Seed: seed})
	if err != nil && !errors.Is(err, core.ErrNoDistinguisher) {
		return fmt.Errorf("warm-up: %w", err)
	}
	for _, rows := range reqs {
		c.PredictBatch(rows)
	}
	return nil
}

// passMetrics is the end-to-end view of gimli7 passes, with the sample
// count behind each figure.
func (r *runner) passMetrics(ps []passResult) (map[string]float64, map[string]int) {
	m, n := map[string]float64{}, map[string]int{}
	var off, on, cls, games []float64
	requests, wall := 0, time.Duration(0)
	for _, p := range ps {
		off = append(off, p.offline.Seconds())
		on = append(on, p.online.Seconds())
		cls = append(cls, p.classMS...)
		games = append(games, p.gameMS...)
		requests += p.requests
		wall += p.wall
	}
	m["setup_s"] = median(r.setup)
	m["offline_s"] = median(off)
	m["online_s"] = median(on)
	m["val_accuracy"] = ps[0].accuracy
	m["rps"] = float64(requests) / wall.Seconds()
	r.pctl(m, n, "classify_p50_ms", cls, 50)
	r.pctl(m, n, "classify_p90_ms", cls, 90)
	r.pctl(m, n, "distinguish_p50_ms", games, 50)
	r.pctl(m, n, "distinguish_p90_ms", games, 90)
	m["peak_rss_mb"] = peakRSSMB()
	n["setup_s"] = len(r.setup)
	n["offline_s"] = len(off)
	n["online_s"] = len(on)
	n["val_accuracy"] = len(ps)
	n["rps"] = requests
	n["peak_rss_mb"] = 1
	return m, n
}

// noteCoreIdentities prints the sums the traced layers must add up to.
func (r *runner) noteCoreIdentities(traced []passResult) {
	var off, on []float64
	for _, p := range traced {
		off = append(off, p.offline.Seconds())
		on = append(on, p.online.Seconds())
	}
	l := r.layers
	r.note("offline identity: core.train.self_s + nn.fit.s + nn.predict_dataset.s = %.6f s; traced offline_s (mean) = %.6f s",
		l["core.train.self_s"]+l["nn.fit.s"]+l["nn.predict_dataset.s"], mean(off))
	r.note("online identity: core.oracle.s + core.predict_batch.s = %.6f s + loop overhead core.distinguish.loop_s %.6f s; traced online_s (mean) = %.6f s",
		l["core.oracle.s"]+l["core.predict_batch.s"], l["core.distinguish.loop_s"], mean(on))
}

// serving runs the serve (routed=false) or routed workload: set up the
// served model and the deployment setupReps times, then drive it with
// closed-loop clients. A traced run alternates untraced and traced
// set-ups and load windows, measuring seconds of each.
func (r *runner) serving(routed bool) error {
	client := newClient(clients)
	defer client.CloseIdleConnections()
	reps := setupReps
	if r.traced {
		reps = tracedSetupReps
	}
	var st *stack
	var plan []*request
	var plain, traced []passResult
	for k := 0; k < reps; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		useTrace := r.traced && k%2 == 1
		var passTr *tracer
		if useTrace {
			passTr = r.tr
			r.tr.on.Store(true)
		}
		stk, p, pl, err := r.setUp(routed, filepath.Join(r.dir, fmt.Sprintf("setup%d", k)), passTr, client)
		if r.tr != nil {
			r.tr.on.Store(false)
		}
		took := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("set-up %d: %w", k, err)
		}
		r.checkIdentity("served model set-up", identity{p.accuracy, p.games})
		if useTrace {
			r.setupTraced = append(r.setupTraced, took)
			traced = append(traced, p.kept())
		} else {
			r.setup = append(r.setup, took)
			plain = append(plain, p.kept())
		}
		if k < reps-1 {
			r.check("set-up ledger verifies", errors.Join(stk.stop(), stk.verifyLedgers(nil)))
			continue
		}
		st, plan = stk, pl
	}

	// An untraced run measures one window. A traced run alternates
	// untraced and traced quarter windows, and keeps alternating past
	// the time until the traced p99s have their ten samples beyond.
	win := r.seconds
	if r.traced {
		win = r.seconds / 4
	}
	begin := time.Now()
	cursor := make([]int, clients)
	var plainRes, tracedRes []result
	var plainDur, tracedDur time.Duration
	deltas := windowDeltas{series: map[string]map[string]float64{}, routed: map[string]uint64{}}
	for i := 0; ; i++ {
		if !r.traced && i == 1 {
			break
		}
		if r.traced && i%2 == 0 && (time.Since(begin) >= r.seconds && p99Supported(tracedRes) || time.Since(begin) >= maxMeasure) {
			break
		}
		if !r.traced || i%2 == 0 {
			start := time.Now()
			plainRes = append(plainRes, load(client, st.url, plan, cursor, win, r.tr, r.ops, &r.errs)...)
			plainDur += time.Since(start)
			continue
		}
		before, err := snapCounters(client, st)
		if err != nil {
			return errors.Join(err, st.stop())
		}
		r.tr.on.Store(true)
		start := time.Now()
		tracedRes = append(tracedRes, load(client, st.url, plan, cursor, win, r.tr, r.ops, &r.errs)...)
		tracedDur += time.Since(start)
		r.tr.on.Store(false)
		after, err := snapCounters(client, st)
		if err != nil {
			return errors.Join(err, st.stop())
		}
		deltas.add(before, after)
	}

	// Shut down, then check every ledger against what was served.
	distinguished := map[string]int{}
	servedBy := map[string]int{}
	for _, res := range append(append([]result(nil), plainRes...), tracedRes...) {
		by := res.servedBy
		if by == "" {
			by = st.url
		}
		servedBy[by]++
		if res.kind == "distinguish" && res.ok {
			distinguished[by]++
		}
	}
	stopErr := st.stop()
	r.check("deployment drains", stopErr)
	r.check("ledgers verify against their anchors and hold admissions + distinguish served", st.verifyLedgers(distinguished))
	if routed {
		r.note("routed model %s: owners %v (primary first); X-Served-By counts %v", modelName, st.owners, servedBy)
	}

	r.e2e, r.samples = r.loadMetrics(plain, r.setup, plainRes, plainDur)
	if r.traced {
		r.e2eTraced, r.samplesTraced = r.loadMetrics(traced, r.setupTraced, tracedRes, tracedDur)
		spans, aggs := r.tr.snapshot()
		for k, v := range coreLayers(spans, aggs, traced) {
			r.layers[k] = v
		}
		r.servingLayers(routed, spans, deltas, st)
		r.procLayers(deltas.proc, len(tracedRes))
	}
	return nil
}

// setUp trains and saves the served model, checks it in process with
// its games, deploys it and builds the request bodies.
func (r *runner) setUp(routed bool, dir string, tr *tracer, client *http.Client) (*stack, passResult, []*request, error) {
	s, err := newScenario(servedModel)
	if err != nil {
		return nil, passResult{}, nil, err
	}
	p, err := runPass(s, servedModel, r.seed, gameSeeds(r.seed, servedModel.games), nil, tr, r.ops)
	if err != nil {
		return nil, p, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, p, nil, err
	}
	path := filepath.Join(dir, modelName+".gob")
	saved := *p.d
	saved.Classifier = p.nn
	if err := core.SaveDistinguisherFile(path, &saved, "gimli-cipher", servedModel.rounds); err != nil {
		return nil, p, nil, err
	}
	st, err := deploy(dir, routed, path, r.tr, client)
	if err != nil {
		return nil, p, nil, err
	}
	plan, err := buildPlan(s, p.nn, r.seed)
	if err != nil {
		return nil, p, nil, errors.Join(err, st.stop())
	}
	return st, p, plan, nil
}

// p99Supported reports whether every request kind has enough samples
// for a p99 with ten beyond it.
func p99Supported(res []result) bool {
	n := map[string]int{}
	for _, x := range res {
		n[x.kind]++
	}
	return n["classify"] >= needed(99) && n["distinguish"] >= needed(99)
}

// scrapedSeries are the /metrics counters the per-layer view differences
// across traced windows.
var scrapedSeries = []string{
	"served_batches_total", "served_batch_size_sum", "served_batch_size_count",
	"served_shed_total", "served_timeout_total",
	"served_ledger_records_total", "served_ledger_sealed_batches_total",
}

// counterSnap is every counter the per-layer view differences across a
// traced window.
type counterSnap struct {
	proc    procStat
	page    map[string]float64 // the /metrics page
	retries uint64
	routed  map[string]uint64 // router forwards per replica
}

func snapCounters(client *http.Client, st *stack) (counterSnap, error) {
	c := counterSnap{proc: readProc(), routed: map[string]uint64{}}
	var err error
	if c.page, err = scrape(client, st.url); err != nil {
		return c, err
	}
	if st.router != nil {
		c.retries = st.router.Retries.Value()
		for _, lv := range st.router.Routed.Snapshot() {
			c.routed[lv.Label] = lv.Value
		}
	}
	return c, nil
}

// windowDeltas sums the counter differences over the traced windows.
type windowDeltas struct {
	proc    procStat
	series  map[string]map[string]float64 // scraped series → replica → difference
	retries uint64
	routed  map[string]uint64
}

func (d *windowDeltas) add(before, after counterSnap) {
	d.proc = d.proc.add(after.proc.sub(before.proc))
	for _, name := range scrapedSeries {
		if d.series[name] == nil {
			d.series[name] = map[string]float64{}
		}
		for rep, v := range seriesDelta(before.page, after.page, name) {
			d.series[name][rep] += v
		}
	}
	d.retries += after.retries - before.retries
	for rep, v := range after.routed {
		d.routed[rep] += v - before.routed[rep]
	}
}

// loadMetrics is the end-to-end view of serving: the set-up's model
// figures plus the clients' view of the load windows.
func (r *runner) loadMetrics(ps []passResult, setup []float64, res []result, d time.Duration) (map[string]float64, map[string]int) {
	m, n := map[string]float64{}, map[string]int{}
	var off, on []float64
	for _, p := range ps {
		off = append(off, p.offline.Seconds())
		on = append(on, p.online.Seconds())
	}
	lat := map[string][]float64{}
	ok := 0
	for _, x := range res {
		lat[x.kind] = append(lat[x.kind], x.ms)
		if x.ok {
			ok++
		}
	}
	m["setup_s"] = median(setup)
	m["offline_s"] = median(off)
	m["online_s"] = median(on)
	m["val_accuracy"] = ps[0].accuracy
	m["rps"] = float64(ok) / d.Seconds()
	r.pctl(m, n, "classify_p50_ms", lat["classify"], 50)
	r.pctl(m, n, "classify_p90_ms", lat["classify"], 90)
	r.pctl(m, n, "distinguish_p50_ms", lat["distinguish"], 50)
	r.pctl(m, n, "distinguish_p90_ms", lat["distinguish"], 90)
	m["peak_rss_mb"] = peakRSSMB()
	n["setup_s"] = len(setup)
	n["offline_s"] = len(off)
	n["online_s"] = len(on)
	n["val_accuracy"] = len(ps)
	n["rps"] = ok
	n["peak_rss_mb"] = 1
	return m, n
}

// servingLayers derives the serve, http, ledger and cluster per-layer
// metrics from the traced windows.
func (r *runner) servingLayers(routed bool, spans []span, d windowDeltas, st *stack) {
	dur := func(s span) float64 { return ms(s.interval().dur()) }
	byKind := map[string][]float64{}
	perReplica := map[string][]float64{}
	for _, s := range spans {
		for _, kind := range []string{"classify", "distinguish"} {
			if s.Name == "serve.handler."+kind {
				byKind[kind] = append(byKind[kind], dur(s))
				perReplica[kind+" "+s.Label] = append(perReplica[kind+" "+s.Label], dur(s))
			}
		}
	}
	r.layerPctl("serve.handler.classify_p50_ms", byKind["classify"], 50)
	r.layerPctl("serve.handler.classify_p99_ms", byKind["classify"], 99)
	r.layerPctl("serve.handler.distinguish_p50_ms", byKind["distinguish"], 50)
	r.layerPctl("serve.handler.distinguish_p99_ms", byKind["distinguish"], 99)
	if routed {
		for _, key := range sortedKeys(perReplica) {
			if q, err := percentile(perReplica[key], 50); err == nil {
				r.note("serve.handler p50 %s = %.4g ms (n=%d)", key, q.Value, q.N)
			}
		}
	}

	// Client self time: the client span minus the front handler span it
	// is linked to by request ID (the router in routed, the replica in
	// serve).
	front := "serve.handler."
	if routed {
		front = "cluster.router.handler."
	}
	handler := map[string]float64{}
	for _, s := range spans {
		if s.ReqID != "" && strings.HasPrefix(s.Name, front) {
			handler[s.ReqID] = dur(s)
		}
	}
	var self []float64
	clientLat := map[string][]float64{}
	for _, s := range spans {
		kind, ok := strings.CutPrefix(s.Name, "http.client.")
		if !ok || s.ReqID == "" {
			continue
		}
		clientLat[kind] = append(clientLat[kind], dur(s))
		if h, ok := handler[s.ReqID]; ok {
			self = append(self, dur(s)-h)
		}
	}
	r.layers["http.client.self_ms"] = median(self)
	r.note("http.client.self_ms = median over %d linked requests", len(self))
	r.layerPctl("http.client.classify_p99_ms", clientLat["classify"], 99)
	r.layerPctl("http.client.distinguish_p99_ms", clientLat["distinguish"], 99)

	counters := d.series
	batches := total(counters["served_batches_total"])
	rowsPerBatch := total(counters["served_batch_size_sum"]) / math.Max(total(counters["served_batch_size_count"]), 1)
	r.layers["serve.scheduler.batches"] = batches
	r.layers["serve.scheduler.rows_per_batch"] = rowsPerBatch
	r.layers["serve.scheduler.fill"] = rowsPerBatch / float64(servedScheduler.MaxBatch)
	r.layers["serve.shed"] = total(counters["served_shed_total"])
	r.layers["serve.timeouts"] = total(counters["served_timeout_total"])
	r.layers["ledger.records"] = total(counters["served_ledger_records_total"])
	r.layers["ledger.seals"] = total(counters["served_ledger_sealed_batches_total"])
	if !routed {
		return
	}
	for _, name := range scrapedSeries {
		r.note("%s by replica: %v", name, counters[name])
	}
	var rh, fw []float64
	for _, s := range spans {
		switch {
		case s.Name == "cluster.router.forward":
			fw = append(fw, dur(s))
		case strings.HasPrefix(s.Name, front):
			rh = append(rh, dur(s))
		}
	}
	r.layerPctl("cluster.router.handler_p50_ms", rh, 50)
	r.layerPctl("cluster.router.forward_p50_ms", fw, 50)
	// Router→replica spans cannot be linked to their requests (the
	// router forwards only the body), so router self time is aggregated:
	// mean handler time minus mean forward time.
	r.layers["cluster.router.self_ms"] = mean(rh) - mean(fw)
	r.layers["cluster.router.retries"] = float64(d.retries)
	all := 0.0
	for _, v := range d.routed {
		all += float64(v)
	}
	if len(st.owners) > 0 && all > 0 {
		r.layers["cluster.router.primary_share"] = float64(d.routed[st.owners[0]]) / all
	}
}
