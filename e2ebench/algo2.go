package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prng"
	"repro/internal/stats"
)

// paperQueries is the paper's online budget, 2^14.3 queries a game.
const paperQueries = 20171

// model fixes the distinguisher a workload trains and how its online
// phase is played. Training runs at experiments.QuickScale(), the
// defaults cmd/distinguisher ships (8192/2048 per class, 5 epochs,
// hidden 128).
type model struct {
	rounds  int // GIMLI-CIPHER rounds
	games   int // online games per pass
	queries int // queries per game
}

var (
	// gimli7Model is the deepest round count where quick scale gives a
	// significant distinguisher, so game verdicts can be checked.
	gimli7Model = model{rounds: 7, games: 40, queries: paperQueries}
	// servedModel is the model the serving workloads answer for; at 256
	// queries, the served distinguish size, it names the oracle in every
	// game. Set-up plays 200 such games, enough for a steady online_s.
	servedModel = model{rounds: 6, games: 200, queries: 256}
)

// gameSalt is the constant PlayGames mixes into its seed. The traced
// online loop rebuilds PlayGames around wrapped oracles, so it must
// draw the same coin and queries.
const gameSalt = 0x9e3779b97f4a7c15

// passResult is one offline+online pass of Algorithm 2. d and nn are
// dropped once a pass has been checked, so kept passes do not grow the
// heap (peak_rss_mb would otherwise depend on how many passes ran).
type passResult struct {
	d        *core.Distinguisher
	nn       *core.NNClassifier // the trained network, unwrapped
	accuracy float64            // validation accuracy a
	trained  int                // training samples
	samples  int                // training + validation samples generated
	offline  time.Duration      // core.Train
	online   time.Duration      // the games, summed
	gameMS   []float64          // per-game latency
	classMS  []float64          // per in-process classify latency
	games    core.GameResult
	classes  [][]int // outputs of the in-process classify requests
	requests int     // in-process requests completed (classify + games)
	wall     time.Duration
}

// gameSeeds derives the online games' seeds from the workload seed, so
// every pass of a run plays the same games.
func gameSeeds(seed uint64, n int) []uint64 {
	r := prng.NewStream(seed, 1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// newScenario builds the workload's GIMLI-CIPHER scenario through the
// registry, as cmd/distinguisher does. It is never wrapped: a wrapper
// would hide the packed generation paths.
func newScenario(m model) (core.Scenario, error) {
	return core.NewScenarioByName("gimli-cipher", m.rounds)
}

// runPass trains the model on seed and plays its games. classify, if
// non-nil, holds in-process classify requests: three are answered
// through Classifier.PredictBatch before each game, the same 3:1 mix
// the serving workloads send. With tr non-nil every call into core and
// nn is spanned and the games run through the traced online loop.
func runPass(s core.Scenario, m model, seed uint64, seeds []uint64, classify [][][]float64, tr *tracer, ops *tally) (passResult, error) {
	sc := experiments.QuickScale()
	c, err := core.NewMLPClassifier(s.FeatureLen(), s.Classes(), sc.Hidden, seed)
	if err != nil {
		return passResult{}, err
	}
	c.Epochs = sc.Epochs
	c.Workers = sc.Workers
	var cl core.Classifier = c
	var tc *tracedClassifier
	trainSpan := -1
	if tr != nil {
		tc = &tracedClassifier{c: c, tr: tr}
		cl = tc
		c.OnEpoch = func(int, float64, float64) { tr.mark("nn.fit.epoch", trainSpan) }
		trainSpan = tr.begin("core.train", -1, "", "")
		tc.parent = trainSpan
	}
	res := passResult{nn: c}
	ops.sent("train")
	start := time.Now()
	d, err := core.Train(s, cl, core.TrainConfig{
		TrainPerClass: sc.TrainPerClass,
		ValPerClass:   sc.ValPerClass,
		Seed:          seed,
	})
	res.offline = time.Since(start)
	if tr != nil {
		tr.end(trainSpan)
		c.OnEpoch = nil
	}
	ops.done("train", err == nil)
	if err != nil {
		return res, fmt.Errorf("offline phase: %w", err)
	}
	res.d, res.accuracy = d, d.Accuracy
	res.trained, res.samples = d.TrainSamples, d.TrainSamples+d.ValSamples

	online := time.Now()
	for g, gs := range seeds {
		for k := 0; classify != nil && k < 3; k++ {
			rows := classify[(3*g+k)%len(classify)]
			ops.sent("classify")
			id := tr.begin("core.classify", -1, "", "")
			if tc != nil {
				tc.parent = id
			}
			t := time.Now()
			out := cl.PredictBatch(rows)
			res.classMS = append(res.classMS, ms(time.Since(t)))
			tr.end(id)
			res.classes = append(res.classes, out)
			ops.done("classify", len(out) == len(rows))
			res.requests++
		}
		ops.sent("game")
		id := tr.begin("core.game", -1, "", "")
		if tc != nil {
			tc.parent = id
		}
		t := time.Now()
		var gr core.GameResult
		if tr == nil {
			gr, err = d.PlayGames(1, m.queries, gs)
		} else {
			gr, err = tracedGame(d, tr, m.queries, gs)
		}
		lat := time.Since(t)
		tr.end(id)
		ok := err == nil && gr.Games == 1 && gr.Correct == 1
		ops.done("game", ok)
		if err != nil {
			return res, fmt.Errorf("online game %d: %w", g, err)
		}
		res.online += lat
		res.gameMS = append(res.gameMS, ms(lat))
		res.games.Games += gr.Games
		res.games.Correct += gr.Correct
		res.games.Inconclusive += gr.Inconclusive
		res.requests++
	}
	res.wall = time.Since(online)
	return res, nil
}

// kept is p without its model, for keeping across passes.
func (p passResult) kept() passResult {
	p.d, p.nn = nil, nil
	return p
}

// tracedGame is PlayGames(1, queries, seed) rebuilt around a traced
// oracle: PlayGames constructs its oracles itself, so wrapping them
// means repeating its loop. It must reproduce PlayGames' GameResult
// exactly (TestTracedGameMatchesPlayGames).
func tracedGame(d *core.Distinguisher, tr *tracer, queries int, seed uint64) (core.GameResult, error) {
	r := prng.New(seed ^ gameSalt)
	secretCipher := r.Intn(2) == 1
	var o core.Oracle = core.RandomOracle{S: d.Scenario}
	if secretCipher {
		o = core.CipherOracle{S: d.Scenario}
	}
	out, err := d.Distinguish(tracedOracle{o: o, tr: tr}, queries, r)
	if err != nil {
		return core.GameResult{}, err
	}
	res := core.GameResult{Games: 1}
	switch out.Verdict {
	case stats.VerdictCipher:
		if secretCipher {
			res.Correct++
		}
	case stats.VerdictRandom:
		if !secretCipher {
			res.Correct++
		}
	default:
		res.Inconclusive++
	}
	return res, nil
}

// checkClassify compares every in-process classify answer with the
// network's one-row Predict path, a second code path over the same
// weights. It returns how many requests disagree.
func checkClassify(c *core.NNClassifier, requests [][][]float64, got [][]int) int {
	bad := 0
	for i, out := range got {
		rows := requests[i%len(requests)]
		want := make([]int, len(rows))
		for j, row := range rows {
			want[j] = c.Predict(row)
		}
		if !slices.Equal(out, want) {
			bad++
		}
	}
	return bad
}

// classifyRows draws n in-process classify requests of rows rows each
// from the cipher oracle, labels cycling the classes.
func classifyRows(s core.Scenario, seed uint64, n, rows int) [][][]float64 {
	r := prng.NewStream(seed, 2)
	o := core.CipherOracle{S: s}
	out := make([][][]float64, n)
	for i := range out {
		out[i] = make([][]float64, rows)
		for j := range out[i] {
			out[i][j] = o.Query(r, j%s.Classes())
		}
	}
	return out
}

// coreLayers derives the core/nn per-layer metrics from the spans of
// traced passes, as means per pass: means keep the sums exact, so
// core.train.self_s + nn.fit.s + nn.predict_dataset.s is the mean
// core.train span and core.oracle.s + core.predict_batch.s +
// core.distinguish.loop_s is the mean online phase.
func coreLayers(spans []span, aggs map[string]aggregate, passes []passResult) map[string]float64 {
	var self, fit, pred, epoch []float64
	for _, t := range named(spans, "core.train") {
		kids := children(spans, t.ID, "nn.fit", "nn.predict_dataset")
		var ivs []interval
		var f, p time.Duration
		for _, k := range kids {
			ivs = append(ivs, k.interval())
			if k.Name == "nn.fit" {
				f += k.interval().dur()
			} else {
				p += k.interval().dur()
			}
		}
		self = append(self, selfTime(t.interval(), ivs).Seconds())
		fit = append(fit, f.Seconds())
		pred = append(pred, p.Seconds())
		marks := children(spans, t.ID, "nn.fit.epoch")
		for _, k := range kids {
			if k.Name != "nn.fit" {
				continue
			}
			prev := k.Start
			for _, e := range marks {
				if e.Start.After(k.Start) && !e.Start.After(k.End) {
					epoch = append(epoch, ms(e.Start.Sub(prev)))
					prev = e.Start
				}
			}
		}
	}
	var predS, rows, gameS float64
	for _, g := range named(spans, "core.game") {
		gameS += g.interval().dur().Seconds()
		for _, p := range children(spans, g.ID, "core.predict_batch") {
			predS += p.interval().dur().Seconds()
			rows += float64(p.N)
		}
	}
	n := float64(max(len(passes), 1))
	var games core.GameResult
	samples, fitRate := 0.0, 0.0
	for _, p := range passes {
		games.Games += p.games.Games
		games.Correct += p.games.Correct
		games.Inconclusive += p.games.Inconclusive
		samples = float64(p.samples)
		if f := mean(fit); f > 0 {
			fitRate = float64(p.trained*experiments.QuickScale().Epochs) / f
		}
	}
	oracle := aggs["core.oracle"]
	return map[string]float64{
		"core.train.self_s":       mean(self),
		"core.generate.samples":   samples,
		"nn.fit.s":                mean(fit),
		"nn.fit.samples_per_s":    fitRate,
		"nn.fit.epoch_ms":         median(epoch),
		"nn.predict_dataset.s":    mean(pred),
		"core.oracle.s":           oracle.Total.Seconds() / n,
		"core.oracle.queries":     float64(oracle.Count) / n,
		"core.predict_batch.s":    predS / n,
		"core.predict_batch.rows": rows / n,
		"core.distinguish.loop_s": (gameS - oracle.Total.Seconds() - predS) / n,
		"core.games.correct":      float64(games.Correct),
		"core.games.inconclusive": float64(games.Inconclusive),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
