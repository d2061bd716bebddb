package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/prng"
)

// batchCoupledFactories builds the networks whose train-mode forward
// couples rows across the batch (BatchNorm, LSTM), each from a fixed
// seed so repeated builds are identical.
var batchCoupledFactories = []struct {
	name  string
	cols  int
	build func() (*Network, error)
}{
	{"batchnorm-dropout", 12, func() (*Network, error) {
		r := prng.New(61)
		return NewNetwork(
			NewDense(12, 16, r),
			NewBatchNorm(16),
			NewActivation(ReLU, 16),
			NewDropout(0.3, 16, 7),
			NewDense(16, 2, r),
		)
	}},
	{"gohrnet", 32, func() (*Network, error) {
		return GohrNet(32, 2, 4, 1, prng.New(62))
	}},
	{"stacked-lstm", 12, func() (*Network, error) {
		r := prng.New(63)
		l1 := NewLSTM(4, 3, 5, r)
		l1.ReturnSeq = true
		return NewNetwork(l1, NewLSTM(4, 5, 4, r), NewDense(4, 2, r))
	}},
}

// fitPins are the digests of fitPinDigest for each factory, recorded
// from the historical whole-batch training loop. The folded engine must
// reproduce them byte for byte at every worker count.
var fitPins = map[string]string{
	"batchnorm-dropout": "dbc218bb1d3629ea925bb3756aaa6836",
	"gohrnet":           "ba2122d83be046bb22cff6f46a65fb03",
	"stacked-lstm":      "2367f656992e51de0f5407d2d99ca3df",
}

// hashFloats writes the exact bit patterns of vs into h.
func hashFloats(h hash.Hash, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// hashRunningStats writes every BatchNorm's running statistics,
// including those inside residual bodies, in layer order.
func hashRunningStats(h hash.Hash, layers []Layer) {
	for _, l := range layers {
		switch l := l.(type) {
		case *BatchNorm:
			mean, variance := l.RunningStats()
			hashFloats(h, mean)
			hashFloats(h, variance)
		case *Residual:
			hashRunningStats(h, l.Body)
		}
	}
}

// fitPinDigest trains a fresh network with two Fit calls (25 samples
// in batches of 10, so every epoch ends on a partial batch) and hashes
// the trained weights, the BatchNorm running statistics and both
// calls' History.
func fitPinDigest(t *testing.T, build func() (*Network, error), cols, workers int) string {
	t.Helper()
	net, err := build()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 25)
	y := make([]int, len(rows))
	r := prng.New(1234)
	for i := range rows {
		rows[i] = make([]float64, cols)
		for j := range rows[i] {
			rows[i][j] = float64(r.Intn(2))
		}
		if rows[i][0]+rows[i][1] >= 1 {
			y[i] = 1
		}
	}
	x := FromRows(rows)
	h := sha256.New()
	for call := uint64(0); call < 2; call++ {
		hist, err := net.Fit(x, y, FitConfig{Epochs: 2, BatchSize: 10, Seed: 99 + call, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, hist.Loss)
		hashFloats(h, hist.Acc)
	}
	for _, p := range net.Params() {
		hashFloats(h, p.W)
	}
	hashRunningStats(h, net.layers)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestBatchCoupledFitPinned pins the trained bytes of batch-coupled
// networks, which train as one whole-batch shard and ignore Workers.
func TestBatchCoupledFitPinned(t *testing.T) {
	for _, f := range batchCoupledFactories {
		t.Run(f.name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				if got := fitPinDigest(t, f.build, f.cols, w); got != fitPins[f.name] {
					t.Errorf("workers=%d: digest %s, pinned %s", w, got, fitPins[f.name])
				}
			}
		})
	}
}
