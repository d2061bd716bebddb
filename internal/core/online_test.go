package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/prng"
)

// passThrough hides the built-in oracle's type, forcing Distinguish
// onto its float Query/PredictBatch path.
type passThrough struct{ o Oracle }

func (p passThrough) Query(r *prng.Rand, class int) []float64 { return p.o.Query(r, class) }

// recorder logs every prediction and which scoring path produced it.
type recorder struct {
	*NNClassifier
	preds             []int
	batches, datasets int
}

func (c *recorder) PredictBatch(x [][]float64) []int {
	p := c.NNClassifier.PredictBatch(x)
	c.preds = append(c.preds, p...)
	c.batches++
	return p
}

func (c *recorder) PredictDataset(d *Dataset) []int {
	p := c.NNClassifier.PredictDataset(d)
	c.preds = append(c.preds, p...)
	c.datasets++
	return p
}

// TestPackedDistinguishMatchesFloatPath: for every registered
// scenario and both built-in oracles, the packed online path must
// make the same predictions, return the same OnlineResult and leave the
// generator in the same state as the float path, at query counts on
// both sides of the 4096-row chunk and at the paper's 2^14.3.
func TestPackedDistinguishMatchesFloatPath(t *testing.T) {
	for _, s := range RegisteredScenarios() {
		nc, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Oracle{CipherOracle{S: s}, RandomOracle{S: s}} {
			for _, q := range []int{1, 4095, 4097, 20171} {
				packed := &recorder{NNClassifier: nc}
				float := &recorder{NNClassifier: nc}
				dp := &Distinguisher{Scenario: s, Classifier: packed, Accuracy: 0.6}
				df := &Distinguisher{Scenario: s, Classifier: float, Accuracy: 0.6}
				rp, rf := prng.New(uint64(q)), prng.New(uint64(q))
				got, err := dp.Distinguish(o, q, rp)
				if err != nil {
					t.Fatal(err)
				}
				want, err := df.Distinguish(passThrough{o}, q, rf)
				if err != nil {
					t.Fatal(err)
				}
				name := s.Name()
				if packed.datasets == 0 || packed.batches != 0 || float.datasets != 0 {
					t.Fatalf("%s %T q=%d: packed path scored %d datasets and %d batches, float path %d datasets",
						name, o, q, packed.datasets, packed.batches, float.datasets)
				}
				if !slices.Equal(packed.preds, float.preds) {
					t.Fatalf("%s %T q=%d: packed predictions differ from the float path", name, o, q)
				}
				if q > 1 && (!slices.Contains(float.preds, 0) || !slices.Contains(float.preds, 1)) {
					t.Fatalf("%s %T q=%d: the network predicts one class only, so the check is void", name, o, q)
				}
				if got != want {
					t.Fatalf("%s %T q=%d: packed %+v, float %+v", name, o, q, got, want)
				}
				if rp.Uint64() != rf.Uint64() {
					t.Fatalf("%s %T q=%d: packed path consumed different generator state", name, o, q)
				}
			}
		}
	}
}

// TestPackedDistinguishFeatureLenMismatch: a built-in oracle over a
// scenario of another width is not taken packed; it still fails with
// the float path's feature-count error.
func TestPackedDistinguishFeatureLenMismatch(t *testing.T) {
	d := quickTrain(t, 4)
	other, err := NewSpeckScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Oracle{CipherOracle{S: other}, RandomOracle{S: other}} {
		_, err := d.Distinguish(o, 100, prng.New(1))
		if err == nil || !strings.Contains(err.Error(), "oracle returned 32 features, want 128") {
			t.Fatalf("%T over a 32-bit scenario: err = %v", o, err)
		}
	}
}
