package nn

import (
	"fmt"

	"repro/internal/prng"
)

// Dropout randomly zeroes a fraction of its inputs during training and
// scales the survivors by 1/(1−p) ("inverted dropout"), acting as the
// identity at inference time. Section 5 of the paper observes its
// models overfit beyond 5 epochs; dropout is the standard mitigation
// and gives the repository an ablation axis for longer training runs.
type Dropout struct {
	P   float64 // drop probability in [0, 1)
	Dim int

	// Masks are drawn positionally: row i of training step s draws its
	// Dim keep/drop decisions from prng.NewStream(seed, s<<32|row),
	// where row is the row's global offset within the step's batch.
	// Because each (step, row) pair owns a substream — the same
	// construction core.GenerateDataset uses — any sharding of the
	// batch across training-engine workers draws exactly the same
	// masks as a serial pass. step auto-increments per training
	// forward; the engine overrides it (setPos) on training replicas
	// so every shard of one mini-batch shares the step coordinate. A
	// network trained as one whole-batch shard keeps the auto-increment.
	seed   uint64
	step   uint64
	rowOff int
	rw     prng.Rand

	mask []float64
	out  *Matrix // forward scratch
	gout *Matrix // backward scratch
}

// NewDropout creates a dropout layer for feature width dim with drop
// probability p, deterministic under the given seed.
func NewDropout(p float64, dim int, seed uint64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v outside [0, 1)", p))
	}
	if dim <= 0 {
		panic(fmt.Sprintf("nn: invalid dropout dim %d", dim))
	}
	return &Dropout{P: p, Dim: dim, seed: seed ^ 0xd409}
}

// Name identifies the layer.
func (d *Dropout) Name() string { return fmt.Sprintf("Dropout(p=%.2f)", d.P) }

// InDim returns the feature width.
func (d *Dropout) InDim() int { return d.Dim }

// OutDim returns the feature width.
func (d *Dropout) OutDim() int { return d.Dim }

// Params returns nil: dropout is parameter-free.
func (d *Dropout) Params() []*Param { return nil }

// setPos positions the layer's mask stream: the next training forward
// draws masks for global step and batch-row offset rowOff. The training
// engine calls this before every shard so mask draws are a function of
// batch coordinates, never of which worker runs the shard.
func (d *Dropout) setPos(step uint64, rowOff int) {
	d.step = step
	d.rowOff = rowOff
}

// Forward applies the mask in training mode and is the identity
// otherwise.
func (d *Dropout) Forward(x *Matrix, train bool) *Matrix {
	if !train || d.P == 0 {
		d.mask = nil
		return x
	}
	step := d.step
	d.step++
	d.out = ensureMatrix(d.out, x.Rows, x.Cols)
	d.mask = ensureVec(d.mask, len(x.Data))
	keepScale := 1 / (1 - d.P)
	for i := 0; i < x.Rows; i++ {
		d.rw.SeedStream(d.seed, step<<32|uint64(d.rowOff+i))
		row := x.Row(i)
		orow := d.out.Row(i)
		mrow := d.mask[i*x.Cols : (i+1)*x.Cols]
		for j, v := range row {
			if d.rw.Float64() >= d.P {
				mrow[j] = keepScale
				orow[j] = v * keepScale
			} else {
				mrow[j] = 0
				orow[j] = 0
			}
		}
	}
	return d.out
}

// Backward routes gradients through the surviving units.
func (d *Dropout) Backward(grad *Matrix) *Matrix {
	if d.mask == nil {
		// Forward ran in inference mode or with P = 0: identity.
		return grad
	}
	d.gout = ensureMatrix(d.gout, grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		d.gout.Data[i] = g * d.mask[i]
	}
	return d.gout
}

// cloneForTrain returns a training replica sharing the positional mask
// seed, so replicated shards reproduce the serial draws exactly.
func (d *Dropout) cloneForTrain() Layer {
	return &Dropout{P: d.P, Dim: d.Dim, seed: d.seed}
}

// cloneForEval returns an inference replica (dropout is the identity at
// inference, so only the shape metadata matters).
func (d *Dropout) cloneForEval() Layer {
	return &Dropout{P: d.P, Dim: d.Dim, seed: d.seed}
}

// LRScheduler is implemented by optimizers whose learning rate can be
// changed between epochs (both SGD and Adam qualify).
type LRScheduler interface {
	SetLR(lr float64)
}

// SetLR adjusts the SGD learning rate.
func (s *SGD) SetLR(lr float64) { s.LR = lr }

// SetLR adjusts the Adam learning rate.
func (a *Adam) SetLR(lr float64) { a.LR = lr }

// CyclicLR returns a cyclic learning-rate schedule oscillating
// linearly between lo and hi with the given period in epochs — the
// schedule Gohr's SPECK networks trained with.
func CyclicLR(lo, hi float64, period int) func(epoch int) float64 {
	if period < 2 {
		period = 2
	}
	return func(epoch int) float64 {
		pos := epoch % period
		half := period / 2
		if pos < half {
			return lo + (hi-lo)*float64(pos)/float64(half)
		}
		return hi - (hi-lo)*float64(pos-half)/float64(period-half)
	}
}
