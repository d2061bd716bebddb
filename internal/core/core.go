// Package core implements the paper's primary contribution: the
// machine-learning-assisted differential distinguisher of Algorithm 2.
//
// The attacker fixes t ≥ 2 input differences δ0 … δ(t−1). Offline, for
// random inputs P, the output differences CIPHER(P) ⊕ CIPHER(P ⊕ δi)
// are collected as class-i training samples and a classifier is fit; if
// its accuracy a exceeds the random baseline 1/t, a distinguisher
// exists. Online, the same queries are made against an unknown ORACLE:
// if the classifier's accuracy a′ stays near a the oracle is the
// cipher, if it drops to 1/t the oracle is random.
//
// The package is organized around three small interfaces:
//
//   - Scenario — a concrete instantiation of "choose differences, build
//     the output-difference feature vector" for one target (GIMLI-HASH,
//     GIMLI-CIPHER, SPECK, or anything user-provided).
//   - Classifier — anything with Fit/Predict; adapters exist for the
//     internal/nn networks and the internal/svm models.
//   - Oracle — the online phase's query interface, with cipher and
//     random implementations.
//
// Everything is deterministic given a seed.
package core

import (
	"repro/internal/prng"
)

// Scenario produces labelled output-difference samples for a chosen
// set of input differences. Implementations must be deterministic
// functions of the provided generator.
//
// Every sample comes in two encodings. Sample and RandomSample return
// float vectors; they are the conformance oracle and the Oracle.Query
// path. SampleBatch and RandomBatch write the same sample packed: bit i
// of the feature vector at bit i%64 of dst[i/64] (the bits.PackFloats
// layout), every word of dst overwritten, dst FeatureLen()/64 words
// rounded up. Each packed method must write exactly the bits its float
// counterpart returns and consume exactly the same generator outputs,
// so the two encodings are interchangeable row by row
// (testkit.CheckScenario enforces both). Dataset generation and the
// online phase's CipherOracle and RandomOracle draw packed.
type Scenario interface {
	// Name identifies the scenario in reports.
	Name() string
	// Classes returns t, the number of input differences.
	Classes() int
	// FeatureLen returns the length of the feature vectors (bits of
	// observed output difference).
	FeatureLen() int
	// Sample returns one cipher output-difference feature vector for
	// the given class (difference index).
	Sample(r *prng.Rand, class int) []float64
	// RandomSample returns what the same query would produce if the
	// oracle were a random function: a uniformly random difference
	// feature vector.
	RandomSample(r *prng.Rand) []float64
	// SampleBatch writes Sample's vector for the class into dst, packed,
	// without allocating.
	SampleBatch(r *prng.Rand, class int, dst []uint64)
	// RandomBatch writes RandomSample's vector into dst, packed, without
	// allocating.
	RandomBatch(r *prng.Rand, dst []uint64)
}

// QuadScenario additionally samples four rows at once — the width of
// the ×8-interleaved GIMLI kernel (each sample is a state pair). Row k
// must consume only its own generator r[k] (its positional substream)
// and produce exactly the bytes SampleBatch would, so the generation
// engine can group rows freely without moving any stream.
type QuadScenario interface {
	Scenario
	// SampleQuad writes packed samples for (class[k], r[k]) into dst[k]
	// for k = 0..3.
	SampleQuad(r *[4]prng.Rand, class [4]int, dst [4][]uint64)
}

// RelatedKeyScenario is the related-key axis of the paper's
// construction (keyed, t-class, related-key): every cipher class pairs
// its plaintext difference δ with a key difference ∇, and a class
// sample encrypts (P, P ⊕ δ) under the key pair (K, K ⊕ ∇) instead of
// a single key. An all-zero ∇ must degenerate to the ordinary keyed
// scenario bit for bit, so the related-key variant is a strict
// generalization.
//
// Related-key sampling draws more structure per row (a key, then a
// plaintext, in a fixed order), so implementations additionally declare
// their per-class generator layout via DrawWords, and
// testkit.CheckScenario audits the declaration: Sample for a class
// must consume exactly DrawWords(class) 64-bit outputs. Row-positional
// substreams (prng.NewStream(base, row)) already make GenerateDataset
// byte-identical at any worker count whatever a row consumes; the
// declared layout pins that consumption down so a related-key path
// that silently draws differently from its specification cannot pass
// conformance.
type RelatedKeyScenario interface {
	Scenario
	// KeyDelta returns the key difference ∇ serialized in the cipher's
	// NewFromBytes layout. All-zero means single-key.
	KeyDelta() []byte
	// DrawWords returns the exact number of 64-bit generator outputs
	// one Sample or SampleBatch call consumes for the given cipher
	// class (0 ≤ class < Classes()).
	DrawWords(class int) int
}

// DatasetClassifier is the packed fast path of Classifier: it consumes
// a Dataset's backing store directly instead of a materialized
// [][]float64 view. Train and evalAccuracy prefer it when present;
// both paths must produce identical results (the NN adapter expands
// the same bit values into its input matrix either way, so fitted
// weights and predictions are byte-identical).
type DatasetClassifier interface {
	Classifier
	// FitDataset is Fit over the dataset's packed rows and labels.
	FitDataset(d *Dataset) error
	// PredictDataset is PredictBatch over the dataset's packed rows.
	PredictDataset(d *Dataset) []int
}

// Classifier is the model slot of Algorithm 2. internal/nn networks
// (via NNClassifier) and internal/svm models satisfy it.
//
// PredictBatch classifies many samples at once; the online and
// evaluation loops always go through it, so implementations with a
// vectorized forward pass (the neural networks) amortize per-call
// overhead across the whole batch. Implementations that only have a
// per-sample rule can delegate to PredictEach.
type Classifier interface {
	Name() string
	Fit(x [][]float64, y []int) error
	Predict(x []float64) int
	PredictBatch(x [][]float64) []int
}

// Predictor is the single-sample half of Classifier, the minimal
// surface PredictEach needs.
type Predictor interface {
	Predict(x []float64) int
}

// PredictEach implements PredictBatch by repeated Predict calls — the
// default adapter for classifiers without a native batch path.
func PredictEach(p Predictor, x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = p.Predict(row)
	}
	return out
}

// Oracle answers online-phase queries: given a class index, it returns
// the output-difference features the attacker would compute from its
// chosen-input queries.
type Oracle interface {
	Query(r *prng.Rand, class int) []float64
}

// CipherOracle is the ORACLE = CIPHER case.
type CipherOracle struct{ S Scenario }

// Query returns a true cipher sample for the class.
func (o CipherOracle) Query(r *prng.Rand, class int) []float64 { return o.S.Sample(r, class) }

// RandomOracle is the ORACLE = RANDOM case.
type RandomOracle struct{ S Scenario }

// Query ignores the class and returns a random difference.
func (o RandomOracle) Query(r *prng.Rand, class int) []float64 { return o.S.RandomSample(r) }
