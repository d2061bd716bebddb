package nn

import (
	"fmt"

	"repro/internal/prng"
)

// Residual wraps a stack of layers with an identity skip connection:
// y = x + F(x). The wrapped stack must preserve the feature width.
// Together with Conv1D and BatchNorm this reproduces the building
// block of Gohr's deep residual distinguisher (Section 2.3 of the
// paper).
type Residual struct {
	Body []Layer
	dim  int
	out  *Matrix // forward scratch
	gout *Matrix // backward scratch

	scratchEval bool
}

// NewResidual validates that the body maps dim → dim and wraps it.
func NewResidual(body ...Layer) (*Residual, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("nn: residual block needs at least one layer")
	}
	for i := 1; i < len(body); i++ {
		if body[i-1].OutDim() != body[i].InDim() {
			return nil, fmt.Errorf("nn: residual body layer %d (%s) outputs %d but layer %d (%s) expects %d",
				i-1, body[i-1].Name(), body[i-1].OutDim(), i, body[i].Name(), body[i].InDim())
		}
	}
	in := body[0].InDim()
	out := body[len(body)-1].OutDim()
	if in != out {
		return nil, fmt.Errorf("nn: residual body maps %d → %d; the skip connection needs matching widths", in, out)
	}
	return &Residual{Body: body, dim: in}, nil
}

// Name identifies the block.
func (r *Residual) Name() string {
	return fmt.Sprintf("Residual(%d layers, width %d)", len(r.Body), r.dim)
}

// InDim returns the feature width.
func (r *Residual) InDim() int { return r.dim }

// OutDim returns the feature width.
func (r *Residual) OutDim() int { return r.dim }

// Params returns the body's parameters.
func (r *Residual) Params() []*Param {
	var ps []*Param
	for _, l := range r.Body {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward computes x + F(x).
func (r *Residual) Forward(x *Matrix, train bool) *Matrix {
	y := x
	for _, l := range r.Body {
		y = l.Forward(y, train)
	}
	var out *Matrix
	if train || r.scratchEval {
		r.out = ensureMatrix(r.out, x.Rows, x.Cols)
		out = r.out
	} else {
		out = NewMatrix(x.Rows, x.Cols)
	}
	for i := range out.Data {
		out.Data[i] = x.Data[i] + y.Data[i]
	}
	return out
}

// Backward routes the gradient through both the body and the skip. The
// returned matrix is a per-layer scratch buffer.
func (r *Residual) Backward(grad *Matrix) *Matrix {
	g := grad
	for i := len(r.Body) - 1; i >= 0; i-- {
		g = r.Body[i].Backward(g)
	}
	r.gout = ensureMatrix(r.gout, grad.Rows, grad.Cols)
	for i := range r.gout.Data {
		r.gout.Data[i] = grad.Data[i] + g.Data[i]
	}
	return r.gout
}

// cloneForTrain replicates the block if every body layer is
// replicable; a body containing a batch-coupled layer (BatchNorm, as in
// GohrNet) returns nil, so the whole network trains as one whole-batch
// shard.
func (r *Residual) cloneForTrain() Layer {
	body := cloneTrainStack(r.Body)
	if body == nil {
		return nil
	}
	return &Residual{Body: body, dim: r.dim, scratchEval: true}
}

// cloneForEval replicates the block for inference (BatchNorm bodies
// are fine here: inference normalizes row-wise by running statistics).
func (r *Residual) cloneForEval() Layer {
	return &Residual{Body: cloneEvalStack(r.Body), dim: r.dim, scratchEval: true}
}

// setPos forwards the positional mask coordinates to any dropout
// layers inside the body.
func (r *Residual) setPos(step uint64, rowOff int) {
	for _, l := range r.Body {
		if p, ok := l.(positional); ok {
			p.setPos(step, rowOff)
		}
	}
}

// GohrNet builds a small residual tower in the style of Gohr's
// CRYPTO 2019 SPECK distinguisher, adapted to this repository's
// difference features: the bit vector (width in, viewed as a sequence
// with `ch` channels) passes through a width-1 convolution ("word
// embedding"), `depth` residual blocks of [Conv1D(k=3) → BatchNorm →
// ReLU] × 2, and a dense head. For SPECK-32/64, in = 32 and ch = 16
// treats the input as the two 16-bit words channel-major… here we use
// bit-position channels: seqLen = in/ch timesteps of ch bits.
func GohrNet(in, ch, filters, depth int, r *prng.Rand) (*Network, error) {
	if in <= 0 || ch <= 0 || in%ch != 0 {
		return nil, fmt.Errorf("nn: GohrNet input %d not divisible into %d channels", in, ch)
	}
	if filters <= 0 || depth < 0 {
		return nil, fmt.Errorf("nn: invalid GohrNet config filters=%d depth=%d", filters, depth)
	}
	seq := in / ch
	var layers []Layer

	// Stage 1: width-1 convolution expanding ch → filters channels.
	c0 := NewConv1D(seq, ch, filters, 1, r)
	layers = append(layers,
		c0,
		NewBatchNorm(c0.OutDim()),
		NewActivation(ReLU, c0.OutDim()),
	)
	width := c0.OutDim()

	// Stage 2: residual tower.
	for i := 0; i < depth; i++ {
		body := []Layer{
			NewConv1D(seq, filters, filters, 3, r),
			NewBatchNorm(width),
			NewActivation(ReLU, width),
			NewConv1D(seq, filters, filters, 3, r),
			NewBatchNorm(width),
			NewActivation(ReLU, width),
		}
		block, err := NewResidual(body...)
		if err != nil {
			return nil, err
		}
		layers = append(layers, block)
	}

	// Stage 3: dense head (Gohr: 64-unit hidden layers then 1 output;
	// we keep the two-class softmax convention of this repository).
	layers = append(layers,
		NewDense(width, 64, r),
		NewBatchNorm(64),
		NewActivation(ReLU, 64),
		NewDense(64, 2, r),
	)
	return NewNetwork(layers...)
}
