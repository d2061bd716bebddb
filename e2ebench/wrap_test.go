package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
)

// smallTrain is a reduced offline phase for tests; the wrappers must
// not change anything at any scale.
var smallTrain = core.TrainConfig{TrainPerClass: 1024, ValPerClass: 512, Seed: 5}

func trainSmall(t *testing.T, tr *tracer) (*core.Distinguisher, *core.NNClassifier) {
	t.Helper()
	s, err := newScenario(servedModel)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewMLPClassifier(s.FeatureLen(), s.Classes(), 64, smallTrain.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c.Epochs = 2
	var cl core.Classifier = c
	if tr != nil {
		tc := &tracedClassifier{c: c, tr: tr}
		tc.parent = tr.begin("core.train", -1, "", "")
		defer tr.end(tc.parent)
		cl = tc
	}
	d, err := core.Train(s, cl, smallTrain)
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

func weights(t *testing.T, c *core.NNClassifier) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := c.Net.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// The traced classifier must keep core.Train on the packed
// FitDataset/PredictDataset path and leave training bit-identical.
func TestTracedTrainKeepsPackedPathAndResult(t *testing.T) {
	plain, plainNN := trainSmall(t, nil)
	tr := newTracer()
	tr.on.Store(true)
	traced, tracedNN := trainSmall(t, tr)
	if plain.Accuracy != traced.Accuracy || plain.TrainAccuracy != traced.TrainAccuracy {
		t.Fatalf("traced Train changed accuracy: %v/%v vs %v/%v",
			traced.Accuracy, traced.TrainAccuracy, plain.Accuracy, plain.TrainAccuracy)
	}
	if !bytes.Equal(weights(t, plainNN), weights(t, tracedNN)) {
		t.Fatal("traced Train changed the trained weights")
	}
	spans, _ := tr.snapshot()
	if n := len(named(spans, "nn.fit")); n != 1 {
		t.Errorf("%d nn.fit spans, want 1 (FitDataset)", n)
	}
	if n := len(named(spans, "nn.predict_dataset")); n != 2 {
		t.Errorf("%d nn.predict_dataset spans, want 2 (train and validation scoring through PredictDataset)", n)
	}
	if n := len(named(spans, "core.predict_batch")); n != 0 {
		t.Errorf("Train fell back to PredictBatch on the float rows (%d spans)", n)
	}
}

// The scenario goes to core.Train unwrapped, so the widest generation
// path stays reachable.
func TestScenarioKeepsFastPaths(t *testing.T) {
	for _, m := range []model{gimli7Model, servedModel} {
		s, err := newScenario(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(core.QuadScenario); !ok {
			t.Errorf("%d-round scenario %T lost its ×4 sampling path", m.rounds, s)
		}
	}
}

// tracedGame rebuilds PlayGames around traced oracles; it must play the
// very same games.
func TestTracedGameMatchesPlayGames(t *testing.T) {
	d, _ := trainSmall(t, nil)
	tr := newTracer()
	tr.on.Store(true)
	for _, seed := range gameSeeds(9, 12) {
		want, err := d.PlayGames(1, 256, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedGame(d, tr, 256, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: traced game %+v, PlayGames %+v", seed, got, want)
		}
	}
	if _, aggs := tr.snapshot(); aggs["core.oracle"].Count != 12*256 {
		t.Errorf("oracle aggregate counted %d queries, want %d", aggs["core.oracle"].Count, 12*256)
	}
}

// A traced pass reproduces the untraced pass's accuracy, games and
// in-process classify answers.
func TestTracedPassMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two quick-scale models")
	}
	m := model{rounds: 6, games: 6, queries: 256}
	s, err := newScenario(m)
	if err != nil {
		t.Fatal(err)
	}
	seeds := gameSeeds(3, m.games)
	reqs := classifyRows(s, 3, 4, classifyRowsPerReq)
	plain, err := runPass(s, m, 3, seeds, reqs, nil, newTally())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.on.Store(true)
	traced, err := runPass(s, m, 3, seeds, reqs, tr, newTally())
	if err != nil {
		t.Fatal(err)
	}
	if plain.d.Accuracy != traced.d.Accuracy || plain.games != traced.games {
		t.Fatalf("traced pass %v %+v, untraced %v %+v", traced.d.Accuracy, traced.games, plain.d.Accuracy, plain.games)
	}
	if plain.games.Correct != m.games {
		t.Errorf("served model named the oracle in %d of %d games", plain.games.Correct, m.games)
	}
	if n := checkClassify(traced.nn, reqs, traced.classes); n != 0 {
		t.Errorf("%d traced classify answers differ from one-row Predict", n)
	}
	spans, aggs := tr.snapshot()
	l := coreLayers(spans, aggs, []passResult{traced})
	train := named(spans, "core.train")[0].interval().dur().Seconds()
	if sum := l["core.train.self_s"] + l["nn.fit.s"] + l["nn.predict_dataset.s"]; abs(sum-train) > 1e-9 {
		t.Errorf("offline layers sum to %v s, core.train span is %v s", sum, train)
	}
	if got := l["core.oracle.queries"]; got != float64(m.games*m.queries) {
		t.Errorf("core.oracle.queries = %v", got)
	}
	if got := l["core.predict_batch.rows"]; got != float64(m.games*m.queries) {
		t.Errorf("core.predict_batch.rows = %v (in-process classify must not count)", got)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// The metric lists the program prints are the lists BENCHMARK.json
// declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i])
		}
	}
}
