package nn

import (
	"fmt"
	"math"
)

// BatchNorm normalizes each feature over the batch to zero mean and
// unit variance, then applies a learned affine transform (γ, β).
// Running statistics collected during training are used at inference.
//
// Gohr's CRYPTO 2019 distinguishers (the paper's Section 2.3 baseline)
// interleave batch normalization with every convolution; this layer
// exists so that the GohrNet builder in residual.go reproduces that
// architecture family faithfully.
type BatchNorm struct {
	Dim      int
	Momentum float64 // running-average momentum, conventionally 0.9
	Eps      float64

	gamma, beta *Param
	runMean     []float64
	runVar      []float64

	// Training caches and scratch buffers, reused across steps.
	xHat     *Matrix
	std      []float64
	mean     []float64
	variance []float64
	out      *Matrix
	dx       *Matrix
	sumDxHat []float64
	sumDxXh  []float64
	trained  bool

	scratchEval bool
}

// BatchNorm deliberately does not implement cloneForTrain: its
// train-mode statistics couple every row of the mini-batch, so a
// sharded forward pass would compute different normalizations than a
// serial one. Networks containing it train as one whole-batch shard
// (see fitStateFor). Inference normalizes row-wise with running
// statistics, so cloneForEval below is still available to Predictor.
func (b *BatchNorm) cloneForEval() Layer {
	return &BatchNorm{
		Dim:      b.Dim,
		Momentum: b.Momentum,
		Eps:      b.Eps,
		gamma:    &Param{Name: b.gamma.Name, W: b.gamma.W},
		beta:     &Param{Name: b.beta.Name, W: b.beta.W},
		// Shared slices: replicas see running-statistic updates from
		// any later training on the base layer.
		runMean:     b.runMean,
		runVar:      b.runVar,
		scratchEval: true,
	}
}

// NewBatchNorm creates a batch-normalization layer for feature width
// dim with γ = 1, β = 0.
func NewBatchNorm(dim int) *BatchNorm {
	if dim <= 0 {
		panic(fmt.Sprintf("nn: invalid BatchNorm dim %d", dim))
	}
	b := &BatchNorm{
		Dim:      dim,
		Momentum: 0.9,
		Eps:      1e-5,
		gamma:    &Param{Name: fmt.Sprintf("bn%d.gamma", dim), W: make([]float64, dim), Grad: make([]float64, dim)},
		beta:     &Param{Name: fmt.Sprintf("bn%d.beta", dim), W: make([]float64, dim), Grad: make([]float64, dim)},
		runMean:  make([]float64, dim),
		runVar:   make([]float64, dim),
	}
	for i := range b.gamma.W {
		b.gamma.W[i] = 1
		b.runVar[i] = 1
	}
	return b
}

// Name identifies the layer.
func (b *BatchNorm) Name() string { return fmt.Sprintf("BatchNorm(%d)", b.Dim) }

// InDim returns the feature width.
func (b *BatchNorm) InDim() int { return b.Dim }

// OutDim returns the feature width.
func (b *BatchNorm) OutDim() int { return b.Dim }

// Params returns γ and β.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta} }

// Forward normalizes with batch statistics (train) or running
// statistics (inference).
func (b *BatchNorm) Forward(x *Matrix, train bool) *Matrix {
	if x.Cols != b.Dim {
		panic(fmt.Sprintf("nn: %s got input width %d", b.Name(), x.Cols))
	}
	var out *Matrix
	if train || b.scratchEval {
		b.out = ensureMatrix(b.out, x.Rows, x.Cols)
		out = b.out
	} else {
		out = NewMatrix(x.Rows, x.Cols)
	}
	if !train {
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			orow := out.Row(i)
			for j := range row {
				xh := (row[j] - b.runMean[j]) / math.Sqrt(b.runVar[j]+b.Eps)
				orow[j] = b.gamma.W[j]*xh + b.beta.W[j]
			}
		}
		return out
	}

	n := float64(x.Rows)
	b.mean = ensureVec(b.mean, b.Dim)
	b.variance = ensureVec(b.variance, b.Dim)
	zeroFloats(b.mean)
	zeroFloats(b.variance)
	mean, variance := b.mean, b.variance
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= n
	}

	b.std = ensureVec(b.std, b.Dim)
	for j := range b.std {
		b.std[j] = math.Sqrt(variance[j] + b.Eps)
	}
	b.xHat = ensureMatrix(b.xHat, x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		xh := b.xHat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xh[j] = (v - mean[j]) / b.std[j]
			orow[j] = b.gamma.W[j]*xh[j] + b.beta.W[j]
		}
	}
	// Update running statistics.
	for j := range mean {
		b.runMean[j] = b.Momentum*b.runMean[j] + (1-b.Momentum)*mean[j]
		b.runVar[j] = b.Momentum*b.runVar[j] + (1-b.Momentum)*variance[j]
	}
	b.trained = true
	return out
}

// Backward implements the standard batch-norm gradient:
// dxHat = g·γ; dx = (dxHat − mean(dxHat) − xHat·mean(dxHat∘xHat)) / std.
func (b *BatchNorm) Backward(grad *Matrix) *Matrix {
	if b.xHat == nil {
		panic("nn: BatchNorm.Backward before Forward(train=true)")
	}
	n := float64(grad.Rows)
	b.dx = ensureMatrix(b.dx, grad.Rows, grad.Cols)
	dx := b.dx

	// Per-feature sums.
	b.sumDxHat = ensureVec(b.sumDxHat, b.Dim)
	b.sumDxXh = ensureVec(b.sumDxXh, b.Dim)
	zeroFloats(b.sumDxHat)
	zeroFloats(b.sumDxXh)
	sumDxHat, sumDxHatXHat := b.sumDxHat, b.sumDxXh
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		xh := b.xHat.Row(i)
		for j := range g {
			dxh := g[j] * b.gamma.W[j]
			sumDxHat[j] += dxh
			sumDxHatXHat[j] += dxh * xh[j]
			// Parameter gradients while we are here.
			b.gamma.Grad[j] += g[j] * xh[j]
			b.beta.Grad[j] += g[j]
		}
	}
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		xh := b.xHat.Row(i)
		dxr := dx.Row(i)
		for j := range g {
			dxh := g[j] * b.gamma.W[j]
			dxr[j] = (dxh - sumDxHat[j]/n - xh[j]*sumDxHatXHat[j]/n) / b.std[j]
		}
	}
	return dx
}

// RunningStats exposes the inference statistics (for serialization).
func (b *BatchNorm) RunningStats() (mean, variance []float64) { return b.runMean, b.runVar }

// SetRunningStats overwrites the inference statistics (for
// deserialization). Lengths must equal Dim.
func (b *BatchNorm) SetRunningStats(mean, variance []float64) {
	if len(mean) != b.Dim || len(variance) != b.Dim {
		panic("nn: SetRunningStats length mismatch")
	}
	copy(b.runMean, mean)
	copy(b.runVar, variance)
}
