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

// shardedFactories builds networks that train on the sharded engine:
// the GIMLI-shaped 128→128→2 ReLU MLP on {0,1} rows, the dropout and
// LeakyReLU MLPs of the parallel identity tests, and a 100-input MLP
// whose second packed word is partly padding.
var shardedFactories = []struct {
	name  string
	cols  int
	build func() (*Network, error)
}{
	{"mlp-128", 128, func() (*Network, error) {
		return MLP(128, []int{128}, 2, ReLU, prng.New(64))
	}},
	{"mlp-dropout", 12, func() (*Network, error) {
		r := prng.New(41)
		return NewNetwork(
			NewDense(12, 16, r),
			NewActivation(ReLU, 16),
			NewDropout(0.3, 16, 7),
			NewDense(16, 2, r),
		)
	}},
	{"mlp-leaky", 12, func() (*Network, error) {
		return MLP(12, []int{16, 8}, 2, LeakyReLU, prng.New(42))
	}},
	{"mlp-in100", 100, func() (*Network, error) {
		return MLP(100, []int{24}, 2, ReLU, prng.New(65))
	}},
}

// shardedFitPins are the digests of fitPinDigest for each sharded
// factory, recorded from the float-input engine before training on
// packed bits existed.
var shardedFitPins = map[string]string{
	"mlp-128":     "f1d3ce0fad327de300f7de9ef31bd9be",
	"mlp-dropout": "9f7070619cfee13e9b42b3b0aed3487a",
	"mlp-leaky":   "56b617709bef2eadb2316b65164f9c64",
	"mlp-in100":   "abea2ff28a762a82a9aa487e2462a2fe",
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
	return fitPinDigestVia(t, build, cols, workers, false)
}

// fitPinDigestVia is fitPinDigest training through Fit, or through
// FitBits when viaBits is set. FitBits reads the same {0,1} features
// packed one word wider than they need, with every bit at or beyond
// cols set: the engine must ignore them.
func fitPinDigestVia(t *testing.T, build func() (*Network, error), cols, workers int, viaBits bool) string {
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
	wpr := cols/64 + 1
	packed := make([]uint64, len(rows)*wpr)
	for i, row := range rows {
		for j := 0; j < wpr*64; j++ {
			if j >= cols || row[j] == 1 {
				packed[i*wpr+j/64] |= 1 << (j % 64)
			}
		}
	}
	h := sha256.New()
	for call := uint64(0); call < 2; call++ {
		cfg := FitConfig{Epochs: 2, BatchSize: 10, Seed: 99 + call, Workers: workers}
		var hist *History
		if viaBits {
			hist, err = net.FitBits(packed, wpr, y, cfg)
		} else {
			hist, err = net.Fit(x, y, cfg)
		}
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

// TestShardedFitPinned pins the trained bytes of sharded networks at
// several worker counts, through Fit and FitBits, with the AVX2
// kernels on and off.
func TestShardedFitPinned(t *testing.T) {
	for _, f := range shardedFactories {
		t.Run(f.name, func(t *testing.T) {
			for _, viaBits := range []bool{false, true} {
				for _, w := range []int{1, 4, 7} {
					if got := fitPinDigestVia(t, f.build, f.cols, w, viaBits); got != shardedFitPins[f.name] {
						t.Errorf("workers=%d bits=%v: digest %s, pinned %s", w, viaBits, got, shardedFitPins[f.name])
					}
				}
				var got string
				forceScalarMul(func() { got = fitPinDigestVia(t, f.build, f.cols, 4, viaBits) })
				if got != shardedFitPins[f.name] {
					t.Errorf("scalar kernels bits=%v: digest %s, pinned %s", viaBits, got, shardedFitPins[f.name])
				}
			}
		})
	}
}

// TestBatchCoupledFitBitsPinned: batch-coupled networks trained through
// FitBits expand their rows with SetRowBits and reproduce the Fit pins.
func TestBatchCoupledFitBitsPinned(t *testing.T) {
	for _, f := range batchCoupledFactories {
		t.Run(f.name, func(t *testing.T) {
			if got := fitPinDigestVia(t, f.build, f.cols, 4, true); got != fitPins[f.name] {
				t.Errorf("digest %s, pinned %s", got, fitPins[f.name])
			}
		})
	}
}
