package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/stats"
)

// ErrNoDistinguisher is returned by Train when the classifier fails to
// beat the 1/t baseline — the "Abort" branch of Algorithm 2.
var ErrNoDistinguisher = errors.New("core: training accuracy did not exceed 1/t; no distinguisher found")

// TrainConfig controls the offline phase.
type TrainConfig struct {
	// TrainPerClass is the number of training samples per class. The
	// paper's headline experiment uses 2^17.6 total ≈ 99000 per class
	// at t = 2; the package default (8192) trains the 6–7 round
	// distinguishers in seconds.
	TrainPerClass int
	// ValPerClass is the number of fresh validation samples per class
	// used to measure the accuracy a of Algorithm 2 (default 2048).
	ValPerClass int
	// Seed drives all data generation.
	Seed uint64
	// MinAdvantage is how far above 1/t the validation accuracy must be
	// (in binomial sigmas of the validation set) before the
	// distinguisher is accepted. Default 3.
	MinAdvantage float64
}

func (c *TrainConfig) setDefaults() {
	if c.TrainPerClass <= 0 {
		c.TrainPerClass = 8192
	}
	if c.ValPerClass <= 0 {
		c.ValPerClass = 2048
	}
	if c.MinAdvantage <= 0 {
		c.MinAdvantage = 3
	}
}

// Distinguisher is a trained instance of Algorithm 2, ready for the
// online phase.
type Distinguisher struct {
	Scenario   Scenario
	Classifier Classifier
	// Accuracy is the validation accuracy a of the offline phase.
	Accuracy float64
	// TrainAccuracy is the accuracy on the training data itself (the
	// quantity the paper reports; it can exceed Accuracy if the model
	// memorizes).
	TrainAccuracy float64
	// TrainSamples and ValSamples record the offline data complexity.
	TrainSamples, ValSamples int
}

// Train runs the offline phase of Algorithm 2: generate labelled
// output differences, fit the classifier, and verify a > 1/t on fresh
// validation data. It returns ErrNoDistinguisher (wrapped) if the
// advantage is not significant.
func Train(s Scenario, c Classifier, cfg TrainConfig) (*Distinguisher, error) {
	cfg.setDefaults()
	if s.Classes() < 2 {
		return nil, fmt.Errorf("core: scenario %q has %d classes, need ≥ 2", s.Name(), s.Classes())
	}
	r := prng.New(cfg.Seed)
	trainSet := GenerateDataset(s, cfg.TrainPerClass, r)
	if err := fitDataset(c, trainSet); err != nil {
		return nil, fmt.Errorf("core: fitting %s on %s: %w", c.Name(), s.Name(), err)
	}

	trainAcc := evalAccuracy(c, trainSet)
	valSet := GenerateDataset(s, cfg.ValPerClass, r)
	valAcc := evalAccuracy(c, valSet)

	d := &Distinguisher{
		Scenario:      s,
		Classifier:    c,
		Accuracy:      valAcc,
		TrainAccuracy: trainAcc,
		TrainSamples:  trainSet.Len(),
		ValSamples:    valSet.Len(),
	}
	base := 1 / float64(s.Classes())
	z := stats.ZScore(valAcc, base, valSet.Len())
	if z < cfg.MinAdvantage {
		return d, fmt.Errorf("%w (scenario %s, classifier %s: accuracy %.4f vs 1/t %.4f, z=%.2f)",
			ErrNoDistinguisher, s.Name(), c.Name(), valAcc, base, z)
	}
	return d, nil
}

// fitDataset feeds the training set to the classifier, going straight
// from the packed backing store when the classifier understands it
// (DatasetClassifier) and materializing the float view otherwise.
func fitDataset(c Classifier, d *Dataset) error {
	if dc, ok := c.(DatasetClassifier); ok {
		return dc.FitDataset(d)
	}
	return c.Fit(d.Rows(), d.Y)
}

// evalAccuracy scores the classifier on a labelled set. For
// NNClassifier the call runs through its cached Predictor, which
// chunks the set internally and reuses one set of scratch matrices
// across chunks, so scoring large sets does not allocate per chunk;
// the DatasetClassifier path scores the packed rows through
// PredictBitsInto (a gather-add over set bits for a Dense first layer)
// without the [][]float64 detour.
func evalAccuracy(c Classifier, d *Dataset) float64 {
	if dc, ok := c.(DatasetClassifier); ok {
		return stats.Accuracy(dc.PredictDataset(d), d.Y)
	}
	return stats.Accuracy(c.PredictBatch(d.Rows()), d.Y)
}

// OnlineResult is the outcome of one online phase (Algorithm 2,
// testing).
type OnlineResult struct {
	Queries  int     // class-prediction queries made
	Accuracy float64 // a′
	Verdict  stats.Verdict
}

// distinguishBatch caps how many oracle answers are buffered before a
// PredictBatch or PredictDataset call, bounding memory while keeping
// batches large enough to amortize the classifier's per-call overhead.
const distinguishBatch = 4096

// Distinguish runs the online phase against an oracle: make queries
// cycling through the classes, score the classifier's predictions, and
// decide CIPHER vs RANDOM. queries is the total number of predictions
// (the paper's online data complexity; 0 selects the number suggested
// by the offline accuracy at 4σ).
//
// Queries are drawn from the oracle in order (so the generator stream
// is consumed exactly as in the per-query formulation) and scored in
// chunks of up to 4096, which for the neural classifiers replaces
// thousands of 1-row forward passes with a few batched matrix products.
//
// The packed path: when the classifier is a DatasetClassifier and o is
// a CipherOracle or RandomOracle over a scenario with the
// distinguisher's feature length, each chunk is drawn straight into one
// reused packed Dataset (SampleBatch or RandomBatch: the draws and bits
// of Sample and RandomSample) and scored with PredictDataset. Every
// other oracle — user oracles, wrappers — goes through Query and
// PredictBatch, since its values are not guaranteed to be bits. Both
// paths consume the same generator outputs and give the same result.
func (d *Distinguisher) Distinguish(o Oracle, queries int, r *prng.Rand) (OnlineResult, error) {
	t := d.Scenario.Classes()
	if queries <= 0 {
		n, err := stats.OnlineQueriesFor(d.Accuracy, t, 4)
		if err != nil {
			return OnlineResult{}, err
		}
		queries = n
	}
	featLen := d.Scenario.FeatureLen()
	chunk := min(queries, distinguishBatch)
	var hits int
	dc, ok := d.Classifier.(DatasetClassifier)
	if query := packedQuery(o, featLen); ok && query != nil {
		hits = distinguishPacked(dc, query, queries, chunk, t, featLen, r)
	} else {
		xs := make([][]float64, 0, chunk)
		for done := 0; done < queries; done += len(xs) {
			n := min(queries-done, chunk)
			xs = xs[:0]
			for k := 0; k < n; k++ {
				x := o.Query(r, (done+k)%t)
				if len(x) != featLen {
					return OnlineResult{}, fmt.Errorf("core: oracle returned %d features, want %d", len(x), featLen)
				}
				xs = append(xs, x)
			}
			for k, p := range d.Classifier.PredictBatch(xs) {
				if p == (done+k)%t {
					hits++
				}
			}
		}
	}
	aPrime := float64(hits) / float64(queries)
	verdict, err := stats.Decide(d.Accuracy, t, aPrime, queries, 3)
	if err != nil {
		return OnlineResult{}, err
	}
	return OnlineResult{Queries: queries, Accuracy: aPrime, Verdict: verdict}, nil
}

// packedQuery returns the packed form of o's queries — SampleBatch for
// a CipherOracle, RandomBatch for a RandomOracle — when o is one of
// those two over a scenario with featLen features, and nil otherwise.
func packedQuery(o Oracle, featLen int) func(*prng.Rand, int, []uint64) {
	switch o := o.(type) {
	case CipherOracle:
		if o.S.FeatureLen() == featLen {
			return o.S.SampleBatch
		}
	case RandomOracle:
		if o.S.FeatureLen() == featLen {
			return func(r *prng.Rand, _ int, dst []uint64) { o.S.RandomBatch(r, dst) }
		}
	}
	return nil
}

// distinguishPacked is Distinguish's packed path: queries are drawn in
// order into one reused chunk Dataset, labelled with the class each was
// asked for, and scored with PredictDataset. It returns the hit count.
func distinguishPacked(dc DatasetClassifier, query func(*prng.Rand, int, []uint64), queries, chunk, t, featLen int, r *prng.Rand) int {
	buf := newDataset(chunk, featLen)
	ys, words := buf.Y, buf.bits
	hits := 0
	for done := 0; done < queries; done += chunk {
		n := min(queries-done, chunk)
		// rows is dropped so a classifier reading Rows() sees this chunk.
		buf.Y, buf.bits, buf.rows = ys[:n], words[:n*buf.words], nil
		for k := range buf.Y {
			c := (done + k) % t
			buf.Y[k] = c
			query(r, c, buf.Packed(k))
		}
		for k, p := range dc.PredictDataset(buf) {
			if p == buf.Y[k] {
				hits++
			}
		}
	}
	return hits
}

// GameResult summarizes repeated CIPHER/RANDOM identification games.
type GameResult struct {
	Games, Correct, Inconclusive int
}

// SuccessRate returns the fraction of games identified correctly.
func (g GameResult) SuccessRate() float64 {
	if g.Games == 0 {
		return 0
	}
	return float64(g.Correct) / float64(g.Games)
}

// PlayGames runs the classical distinguisher game n times: a secret
// fair coin picks ORACLE ∈ {CIPHER, RANDOM}, the distinguisher issues
// queriesPerGame online queries and must name the oracle. Inconclusive
// verdicts count as failures (tracked separately).
func (d *Distinguisher) PlayGames(n, queriesPerGame int, seed uint64) (GameResult, error) {
	r := prng.New(seed ^ 0x9e3779b97f4a7c15)
	var res GameResult
	for i := 0; i < n; i++ {
		secretCipher := r.Intn(2) == 1
		var o Oracle
		if secretCipher {
			o = CipherOracle{S: d.Scenario}
		} else {
			o = RandomOracle{S: d.Scenario}
		}
		out, err := d.Distinguish(o, queriesPerGame, r)
		if err != nil {
			return res, err
		}
		res.Games++
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
	}
	return res, nil
}

// Complexity reports the log2 data complexities of a trained
// distinguisher alongside the paper's headline numbers.
type Complexity struct {
	OfflineLog2 float64
	OnlineLog2  float64
}

// Complexity returns the realized offline complexity and the online
// complexity needed at 4σ for this distinguisher's accuracy.
func (d *Distinguisher) Complexity() (Complexity, error) {
	n, err := stats.OnlineQueriesFor(d.Accuracy, d.Scenario.Classes(), 4)
	if err != nil {
		return Complexity{}, err
	}
	return Complexity{
		OfflineLog2: math.Log2(float64(d.TrainSamples)),
		OnlineLog2:  math.Log2(float64(n)),
	}, nil
}
