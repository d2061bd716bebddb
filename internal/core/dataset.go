package core

import (
	"runtime"
	"sync"

	"repro/internal/bits"
	"repro/internal/prng"
)

// Dataset is a labelled sample collection. Features are {0,1} bits, so
// the backing store is packed: one contiguous []uint64 bit matrix
// (wordsPerRow words per sample, bit i of a row at bit i%64 of word
// i/64 — the bits.PackFloats layout) plus one contiguous label slice.
// At the paper's 2^17.6-sample budget this is a 64× memory reduction
// over the former [][]float64 store, and generation writes rows without
// per-row heap allocation.
//
// Float views are materialized on demand: Row expands one sample into
// caller scratch, Rows materializes (and caches) the whole matrix for
// classifiers that want the legacy [][]float64 shape.
type Dataset struct {
	Y []int

	feat  int      // features (bits) per sample
	words int      // uint64 words per sample
	bits  []uint64 // packed bit matrix, len(Y)*words words
	rows  [][]float64
}

// newDataset allocates a packed dataset for n samples of feat bits.
func newDataset(n, feat int) *Dataset {
	words := bits.PackedWords(feat)
	return &Dataset{
		Y:     make([]int, n),
		feat:  feat,
		words: words,
		bits:  make([]uint64, n*words),
	}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// FeatureLen returns the number of features (bits) per sample.
func (d *Dataset) FeatureLen() int { return d.feat }

// WordsPerRow returns the number of uint64 words backing each sample.
func (d *Dataset) WordsPerRow() int { return d.words }

// Packed returns the packed words of row i. The slice aliases the
// backing store; treat it as read-only.
func (d *Dataset) Packed(i int) []uint64 {
	return d.bits[i*d.words : (i+1)*d.words : (i+1)*d.words]
}

// PackedBits returns the whole packed bit matrix, row-major. The slice
// aliases the backing store; treat it as read-only.
func (d *Dataset) PackedBits() []uint64 { return d.bits }

// Row expands row i into scratch and returns the FeatureLen-long float
// view, reallocating only when scratch is too small. The returned
// slice aliases scratch: it stays valid until the next Row call on the
// same scratch, so callers iterating rows reuse one buffer —
//
//	var scratch []float64
//	for i := 0; i < d.Len(); i++ {
//		row := d.Row(i, scratch)
//		scratch = row // reuse; row is invalidated by the next call
//	}
func (d *Dataset) Row(i int, scratch []float64) []float64 {
	if cap(scratch) < d.feat {
		scratch = make([]float64, d.feat)
	}
	return bits.ExpandBits(scratch[:d.feat], d.Packed(i), d.feat)
}

// Rows materializes the legacy [][]float64 view of the whole dataset,
// backed by one contiguous float allocation, and caches it: repeated
// calls return the same slices. It is the adapter between the packed
// store and Classifier.Fit/PredictBatch implementations that take
// float rows; the packed-aware paths (DatasetClassifier) never call it.
func (d *Dataset) Rows() [][]float64 {
	if d.rows != nil || d.Len() == 0 {
		return d.rows
	}
	flat := make([]float64, d.Len()*d.feat)
	rows := make([][]float64, d.Len())
	for i := range rows {
		row := flat[i*d.feat : (i+1)*d.feat : (i+1)*d.feat]
		bits.ExpandBits(row, d.Packed(i), d.feat)
		rows[i] = row
	}
	d.rows = rows
	return rows
}

// GenerateDataset draws perClass cipher samples for each of the
// scenario's classes, interleaved so that truncation keeps balance,
// sharded across GOMAXPROCS goroutines. Rows are written to the
// dataset's packed backing store (see Dataset) by one of two tiers:
// QuadScenario scenarios (GIMLI's ×8-interleaved permutation) fill four
// rows per call, and every other row is packed one at a time by
// SampleBatch. Read samples back through Row/Rows; the float views
// those return are materialized lazily, and a Row view is only valid
// until the next Row call on the same scratch slice.
//
// Determinism contract: exactly one output is consumed from r to
// derive a base seed, and row j (canonical interleaved order: sample
// i of class c sits at row i*t+c) is drawn from the positional
// substream prng.NewStream(base, j). Because each row owns its
// substream, any partition of rows across workers reproduces the same
// bytes — the output does not depend on GOMAXPROCS, and the quad tier
// is byte-identical to the per-row Sample path (regression-tested
// across every registered scenario).
func GenerateDataset(s Scenario, perClass int, r *prng.Rand) *Dataset {
	return generateDataset(s, perClass, r, runtime.GOMAXPROCS(0))
}

// generateDataset is GenerateDataset over at most workers goroutines.
// Worker count never changes the output; the parameter exists so tests
// can fan out without touching GOMAXPROCS.
func generateDataset(s Scenario, perClass int, r *prng.Rand, workers int) *Dataset {
	if perClass < 0 {
		perClass = 0
	}
	t := s.Classes()
	n := perClass * t
	// The base seed is drawn unconditionally — even for an empty
	// dataset — so generator-state consumption is independent of
	// perClass and callers sequencing multiple generations stay
	// reproducible.
	base := r.Uint64()
	d := newDataset(n, s.FeatureLen())
	qs, _ := s.(QuadScenario)
	// fill generates rows [lo, hi): quads first, then single rows. Each
	// row's generator is reseeded to its positional substream, so both
	// tiers consume exactly the same draws per row and shard boundaries
	// cannot shift any stream. The loop does not allocate: rows are
	// packed into the preallocated backing store.
	fill := func(lo, hi int, rs *[4]prng.Rand) {
		j := lo
		if qs != nil {
			for ; j+3 < hi; j += 4 {
				for k := 0; k < 4; k++ {
					rs[k].SeedStream(base, uint64(j+k))
				}
				qs.SampleQuad(rs, [4]int{j % t, (j + 1) % t, (j + 2) % t, (j + 3) % t},
					[4][]uint64{d.Packed(j), d.Packed(j + 1), d.Packed(j + 2), d.Packed(j + 3)})
				d.Y[j], d.Y[j+1], d.Y[j+2], d.Y[j+3] = j%t, (j+1)%t, (j+2)%t, (j+3)%t
			}
		}
		for ; j < hi; j++ {
			rs[0].SeedStream(base, uint64(j))
			s.SampleBatch(&rs[0], j%t, d.Packed(j))
			d.Y[j] = j % t
		}
	}
	// Sampling never blocks, so the single-worker case runs inline
	// with no goroutine at all.
	workers = min(workers, n)
	if workers <= 1 {
		fill(0, n, &[4]prng.Rand{})
		return d
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi, &[4]prng.Rand{})
		}(lo, hi)
	}
	wg.Wait()
	return d
}
