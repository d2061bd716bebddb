package main

// metricDef is one reported metric. endToEnd and perLayer are the
// end_to_end and per_layer lists of BENCHMARK.json, in its order
// (TestMetricListsMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd metrics are measured with tracing off. Every workload reports
// all of them; see README.md for what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"offline_s", "s"},
	{"online_s", "s"},
	{"val_accuracy", "fraction"},
	{"rps", "req/s"},
	{"classify_p50_ms", "ms"},
	{"classify_p90_ms", "ms"},
	{"distinguish_p50_ms", "ms"},
	{"distinguish_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from the traced windows of a --trace 1 run and
// form its result line. Each is measured on every workload or is a
// count: a layer that does no work on a workload counts 0 there.
var perLayer = []metricDef{
	{"core.train.self_s", "s"},
	{"core.generate.samples", "count"},
	{"nn.fit.s", "s"},
	{"nn.fit.samples_per_s", "1/s"},
	{"nn.fit.epoch_ms", "ms"},
	{"nn.predict_dataset.s", "s"},
	{"core.oracle.s", "s"},
	{"core.oracle.queries", "count"},
	{"core.predict_batch.s", "s"},
	{"core.predict_batch.rows", "count"},
	{"core.distinguish.loop_s", "s"},
	{"core.games.correct", "count"},
	{"core.games.inconclusive", "count"},
	{"serve.scheduler.batches", "count"},
	{"serve.scheduler.rows_per_batch", "rows"},
	{"serve.scheduler.fill", "fraction"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"ledger.records", "count"},
	{"ledger.seals", "count"},
	{"process.cpu_ms_per_req", "ms"},
	{"go.alloc_kb_per_req", "KB"},
	{"go.gc_cycles", "count"},
	{"cluster.router.retries", "count"},
	{"cluster.router.primary_share", "fraction"},
}

// servingLayerTimes are the per-layer timings of layers only the serving
// workloads run (serve and http on serve and routed, cluster on routed).
// The report prints them with every traced run; they stay out of the
// result line, where a workload without the layer could only report a
// constant 0 ms.
var servingLayerTimes = []metricDef{
	{"serve.handler.classify_p50_ms", "ms"},
	{"serve.handler.classify_p99_ms", "ms"},
	{"serve.handler.distinguish_p50_ms", "ms"},
	{"serve.handler.distinguish_p99_ms", "ms"},
	{"http.client.self_ms", "ms"},
	{"http.client.classify_p99_ms", "ms"},
	{"http.client.distinguish_p99_ms", "ms"},
	{"cluster.router.handler_p50_ms", "ms"},
	{"cluster.router.forward_p50_ms", "ms"},
	{"cluster.router.self_ms", "ms"},
}

// workloads are the names --workload accepts.
var workloads = []string{"gimli7", "serve", "routed"}
