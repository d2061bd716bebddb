package core

import (
	"testing"

	"repro/internal/prng"
)

// Regression tests for latent edge cases surfaced while wiring the
// testkit conformance suite: degenerate dataset sizes and worker
// counts, and online phases smaller than the prediction batch.

func edgeScenario(t *testing.T) Scenario {
	t.Helper()
	s, err := NewSpeckScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGenerateDatasetEmpty: perClass = 0 must yield an empty, valid
// dataset at any worker count — including workers greater than the
// (zero) row count — without panicking.
func TestGenerateDatasetEmpty(t *testing.T) {
	s := edgeScenario(t)
	for _, workers := range []int{0, 1, 4, 64} {
		d := generateDataset(s, 0, prng.New(1), workers)
		if d.Len() != 0 || len(d.PackedBits()) != 0 || len(d.Rows()) != 0 {
			t.Fatalf("perClass=0 workers=%d: %d rows", workers, d.Len())
		}
	}
}

// TestGenerateDatasetNegativePerClass: a negative size is clamped to
// empty instead of panicking in make().
func TestGenerateDatasetNegativePerClass(t *testing.T) {
	s := edgeScenario(t)
	d := generateDataset(s, -5, prng.New(1), 4)
	if d.Len() != 0 {
		t.Fatalf("negative perClass produced %d rows", d.Len())
	}
}

// TestGenerateDatasetEmptyConsumesOneSeed: the determinism contract —
// exactly one Uint64 consumed for the base seed — must hold even for
// empty datasets, so a zero-sized generation in a pipeline does not
// shift every later draw.
func TestGenerateDatasetEmptyConsumesOneSeed(t *testing.T) {
	s := edgeScenario(t)
	r1 := prng.New(42)
	generateDataset(s, 0, r1, 4)
	r2 := prng.New(42)
	r2.Uint64()
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("empty generation consumed a different amount of generator state")
	}
}

// TestGenerateDatasetWorkersExceedRows: more workers than rows must
// neither panic nor change the output relative to serial generation.
func TestGenerateDatasetWorkersExceedRows(t *testing.T) {
	s := edgeScenario(t)
	serial := generateDataset(s, 2, prng.New(7), 1)
	wide := generateDataset(s, 2, prng.New(7), 64)
	if serial.Len() != wide.Len() {
		t.Fatalf("row counts differ: %d vs %d", serial.Len(), wide.Len())
	}
	var sRow, wRow []float64
	for i := range serial.Y {
		if serial.Y[i] != wide.Y[i] {
			t.Fatalf("row %d label differs", i)
		}
		sRow = serial.Row(i, sRow)
		wRow = wide.Row(i, wRow)
		for j := range sRow {
			if sRow[j] != wRow[j] {
				t.Fatalf("row %d feature %d differs", i, j)
			}
		}
	}
}

// TestDistinguishSmallQueries: online phases smaller than the
// prediction batch (including a single query) must not panic and must
// answer exactly `queries` queries.
func TestDistinguishSmallQueries(t *testing.T) {
	s := edgeScenario(t)
	c, err := NewBitBiasClassifier(s.FeatureLen(), s.Classes())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Train(s, c, TrainConfig{TrainPerClass: 512, ValPerClass: 256, Seed: 5})
	if err != nil {
		t.Fatalf("offline phase failed: %v", err)
	}
	for _, q := range []int{1, 5, distinguishBatch - 1, distinguishBatch + 1} {
		res, err := d.Distinguish(CipherOracle{S: s}, q, prng.New(9))
		if err != nil {
			t.Fatalf("queries=%d: %v", q, err)
		}
		if res.Queries != q {
			t.Fatalf("queries=%d: result reports %d", q, res.Queries)
		}
	}
}
