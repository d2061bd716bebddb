package nn

import (
	"fmt"
	"math"

	"repro/internal/prng"
)

// LSTM is a single-layer Long Short-Term Memory network. The flat
// input row of width SeqLen·InDim is interpreted as SeqLen timesteps
// of InDim features; the layer outputs the final hidden state (width
// Hidden), which is the standard many-to-one classification reduction
// and what the paper's Keras LSTM layers produce by default.
//
// Gate order in the packed weight matrices is (i, f, g, o):
//
//	i_t = σ(x_t·Wx[i] + h_{t−1}·Wh[i] + b[i])
//	f_t = σ(…f…),  g_t = tanh(…g…),  o_t = σ(…o…)
//	c_t = f_t∘c_{t−1} + i_t∘g_t,   h_t = o_t∘tanh(c_t)
//
// Backward implements full backpropagation through time.
type LSTM struct {
	SeqLen, In, Hidden int
	// ReturnSeq selects the output shape: false returns the final
	// hidden state (batch × Hidden); true returns every hidden state
	// (batch × SeqLen·Hidden), which is what stacked LSTM layers
	// consume (Keras return_sequences=True).
	ReturnSeq bool
	wx, wh, b *Param

	// Per-forward caches for BPTT (length SeqLen each).
	xs             []*Matrix // inputs per step (batch×In)
	is, fs, gs, os []*Matrix // gate activations (batch×H)
	cs, hs, tanhCs []*Matrix // cell states, hidden states, tanh(c)
	batch          int
}

// NewLSTM creates an LSTM with Glorot-uniform input weights,
// Glorot-uniform recurrent weights and the conventional forget-gate
// bias of 1.
func NewLSTM(seqLen, in, hidden int, r *prng.Rand) *LSTM {
	if seqLen <= 0 || in <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("nn: invalid LSTM config T=%d D=%d H=%d", seqLen, in, hidden))
	}
	l := &LSTM{
		SeqLen: seqLen, In: in, Hidden: hidden,
		wx: &Param{Name: "lstm.Wx", W: make([]float64, in*4*hidden), Grad: make([]float64, in*4*hidden)},
		wh: &Param{Name: "lstm.Wh", W: make([]float64, hidden*4*hidden), Grad: make([]float64, hidden*4*hidden)},
		b:  &Param{Name: "lstm.b", W: make([]float64, 4*hidden), Grad: make([]float64, 4*hidden)},
	}
	lim := math.Sqrt(6.0 / float64(in+4*hidden))
	for i := range l.wx.W {
		l.wx.W[i] = (2*r.Float64() - 1) * lim
	}
	lim = math.Sqrt(6.0 / float64(hidden+4*hidden))
	for i := range l.wh.W {
		l.wh.W[i] = (2*r.Float64() - 1) * lim
	}
	// Forget-gate bias 1 (slice [H, 2H) in the i,f,g,o packing).
	for j := hidden; j < 2*hidden; j++ {
		l.b.W[j] = 1
	}
	return l
}

// Name identifies the layer.
func (l *LSTM) Name() string {
	return fmt.Sprintf("LSTM(T=%d,D=%d→H=%d)", l.SeqLen, l.In, l.Hidden)
}

// InDim returns SeqLen·In.
func (l *LSTM) InDim() int { return l.SeqLen * l.In }

// OutDim returns the hidden width, or SeqLen·Hidden when ReturnSeq is
// set.
func (l *LSTM) OutDim() int {
	if l.ReturnSeq {
		return l.SeqLen * l.Hidden
	}
	return l.Hidden
}

// Params returns the input, recurrent and bias tensors.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// ParamCount returns the number of trainable scalars:
// 4H(D + H + 1), matching the Keras formula used by Table 3.
func (l *LSTM) ParamCount() int {
	return 4 * l.Hidden * (l.In + l.Hidden + 1)
}

// cloneForEval returns an inference replica sharing the weights.
// Inference writes no layer state, so the replica is a bare shell.
func (l *LSTM) cloneForEval() Layer {
	return &LSTM{SeqLen: l.SeqLen, In: l.In, Hidden: l.Hidden, ReturnSeq: l.ReturnSeq, wx: l.wx, wh: l.wh, b: l.b}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward runs the sequence and returns the final hidden state.
func (l *LSTM) Forward(x *Matrix, train bool) *Matrix {
	if x.Cols != l.InDim() {
		panic(fmt.Sprintf("nn: %s got input width %d", l.Name(), x.Cols))
	}
	batch := x.Rows
	H := l.Hidden
	wx := &Matrix{Rows: l.In, Cols: 4 * H, Data: l.wx.W}
	wh := &Matrix{Rows: H, Cols: 4 * H, Data: l.wh.W}

	if train {
		l.batch = batch
		l.xs = make([]*Matrix, l.SeqLen)
		l.is = make([]*Matrix, l.SeqLen)
		l.fs = make([]*Matrix, l.SeqLen)
		l.gs = make([]*Matrix, l.SeqLen)
		l.os = make([]*Matrix, l.SeqLen)
		l.cs = make([]*Matrix, l.SeqLen)
		l.hs = make([]*Matrix, l.SeqLen)
		l.tanhCs = make([]*Matrix, l.SeqLen)
	}

	h := NewMatrix(batch, H)
	c := NewMatrix(batch, H)
	allH := make([]*Matrix, l.SeqLen)
	for t := 0; t < l.SeqLen; t++ {
		// Slice out timestep t as a batch×In matrix.
		xt := NewMatrix(batch, l.In)
		for n := 0; n < batch; n++ {
			copy(xt.Row(n), x.Row(n)[t*l.In:(t+1)*l.In])
		}
		z := Mul(xt, wx)
		zh := Mul(h, wh)
		for i := range z.Data {
			z.Data[i] += zh.Data[i]
		}
		z.AddRowVector(l.b.W)

		it := NewMatrix(batch, H)
		ft := NewMatrix(batch, H)
		gt := NewMatrix(batch, H)
		ot := NewMatrix(batch, H)
		cNew := NewMatrix(batch, H)
		hNew := NewMatrix(batch, H)
		tc := NewMatrix(batch, H)
		for n := 0; n < batch; n++ {
			zr := z.Row(n)
			cr := c.Row(n)
			for j := 0; j < H; j++ {
				iv := sigmoid(zr[j])
				fv := sigmoid(zr[H+j])
				gv := math.Tanh(zr[2*H+j])
				ov := sigmoid(zr[3*H+j])
				cv := fv*cr[j] + iv*gv
				tcv := math.Tanh(cv)
				it.Row(n)[j] = iv
				ft.Row(n)[j] = fv
				gt.Row(n)[j] = gv
				ot.Row(n)[j] = ov
				cNew.Row(n)[j] = cv
				tc.Row(n)[j] = tcv
				hNew.Row(n)[j] = ov * tcv
			}
		}
		if train {
			l.xs[t] = xt
			l.is[t] = it
			l.fs[t] = ft
			l.gs[t] = gt
			l.os[t] = ot
			l.cs[t] = cNew
			l.hs[t] = hNew
			l.tanhCs[t] = tc
		}
		allH[t] = hNew
		h, c = hNew, cNew
	}
	if !l.ReturnSeq {
		return h
	}
	out := NewMatrix(batch, l.SeqLen*H)
	for t, ht := range allH {
		for n := 0; n < batch; n++ {
			copy(out.Row(n)[t*H:(t+1)*H], ht.Row(n))
		}
	}
	return out
}

// Backward backpropagates dL/dh_T through time, accumulating weight
// gradients and returning dL/dinput (batch × SeqLen·In).
func (l *LSTM) Backward(grad *Matrix) *Matrix {
	if l.xs == nil {
		panic("nn: LSTM.Backward before Forward(train=true)")
	}
	batch, H := l.batch, l.Hidden
	wx := &Matrix{Rows: l.In, Cols: 4 * H, Data: l.wx.W}
	wh := &Matrix{Rows: H, Cols: 4 * H, Data: l.wh.W}

	dx := NewMatrix(batch, l.InDim())
	var dh *Matrix // dL/dh_t, updated as we walk back
	if l.ReturnSeq {
		dh = NewMatrix(batch, H)
	} else {
		dh = grad.Clone()
	}
	dc := NewMatrix(batch, H) // dL/dc_t carried across steps

	for t := l.SeqLen - 1; t >= 0; t-- {
		if l.ReturnSeq {
			// Every timestep's hidden state fed the next layer.
			for n := 0; n < batch; n++ {
				g := grad.Row(n)[t*H : (t+1)*H]
				dhr := dh.Row(n)
				for j := range dhr {
					dhr[j] += g[j]
				}
			}
		}
		it, ft, gt, ot := l.is[t], l.fs[t], l.gs[t], l.os[t]
		tc := l.tanhCs[t]
		var cPrev *Matrix
		if t > 0 {
			cPrev = l.cs[t-1]
		} else {
			cPrev = NewMatrix(batch, H)
		}

		dz := NewMatrix(batch, 4*H)
		dcPrev := NewMatrix(batch, H)
		for n := 0; n < batch; n++ {
			dhr := dh.Row(n)
			dcr := dc.Row(n)
			dzr := dz.Row(n)
			for j := 0; j < H; j++ {
				ov := ot.Row(n)[j]
				tcv := tc.Row(n)[j]
				iv := it.Row(n)[j]
				fv := ft.Row(n)[j]
				gv := gt.Row(n)[j]

				// h = o∘tanh(c): gradients into o and c.
				do := dhr[j] * tcv
				dcTot := dcr[j] + dhr[j]*ov*(1-tcv*tcv)

				// c = f∘c_prev + i∘g.
				di := dcTot * gv
				df := dcTot * cPrev.Row(n)[j]
				dg := dcTot * iv
				dcPrev.Row(n)[j] = dcTot * fv

				// Through the gate nonlinearities to pre-activations.
				dzr[j] = di * iv * (1 - iv)
				dzr[H+j] = df * fv * (1 - fv)
				dzr[2*H+j] = dg * (1 - gv*gv)
				dzr[3*H+j] = do * ov * (1 - ov)
			}
		}

		// Parameter gradients.
		dwx := MulTN(l.xs[t], dz)
		for i, v := range dwx.Data {
			l.wx.Grad[i] += v
		}
		var hPrev *Matrix
		if t > 0 {
			hPrev = l.hs[t-1]
		} else {
			hPrev = NewMatrix(batch, H)
		}
		dwh := MulTN(hPrev, dz)
		for i, v := range dwh.Data {
			l.wh.Grad[i] += v
		}
		for j, v := range dz.ColSums() {
			l.b.Grad[j] += v
		}

		// Input gradient for this timestep.
		dxt := MulNT(dz, wx)
		for n := 0; n < batch; n++ {
			copy(dx.Row(n)[t*l.In:(t+1)*l.In], dxt.Row(n))
		}

		// Hidden gradient for the previous step.
		dh = MulNT(dz, wh)
		dc = dcPrev
	}
	return dx
}
