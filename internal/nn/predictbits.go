package nn

import (
	"fmt"
	mathbits "math/bits"
)

// This file is the bit-driven inference entry point: networks whose
// inputs are {0,1} features (every scenario in this repository) can be
// scored straight from packed rows, without expanding them to floats.
// When the first layer is Dense, a row's pre-activation is the sum of
// the weight rows of its set bits, so the first matrix product becomes
// a gather-add over the set bits, found with TrailingZeros64.
//
// Exactness: the float path (SetRowBits + MulInto) starts each output
// row at zero and adds a·W[k] for every nonzero a in ascending k, one
// rounding per term, then adds the bias. Here a = 1, and 1·W[k] is
// exact, so adding W[k] for the set bits in ascending order through the
// same axpy kernels (a = 1.0) is the same chain of roundings; the bias
// and a fused ReLU (reluBits, the function actForward calls) follow in
// the same order. The outputs are therefore bit-identical to the float path.

// PredictBitsInto is PredictInto over packed {0,1} rows: row i of the
// input is packed[i*wordsPerRow : (i+1)*wordsPerRow], feature j at bit
// j%64 of word j/64 (the layout SetRowBits reads); bits at or beyond
// the network's input width are ignored. The predictions are bitwise
// those of SetRowBits followed by PredictInto. When the first layer is
// Dense it runs as a gather-add over the set bits (with a following
// ReLU fused into the same pass) and the remaining layers run
// unchanged; any other first layer falls back to SetRowBits +
// PredictInto. dst is reused as in PredictInto.
func (p *Predictor) PredictBitsInto(dst []int, packed []uint64, rows, wordsPerRow int) []int {
	return argmaxInto(dst, p.forwardBits(packed, rows, wordsPerRow))
}

// forwardBits returns the logits of the packed rows.
func (p *Predictor) forwardBits(packed []uint64, rows, wordsPerRow int) *Matrix {
	in := p.net.InDim()
	if rows < 0 || wordsPerRow*64 < in || len(packed) < rows*wordsPerRow {
		panic(fmt.Sprintf("nn: PredictBitsInto: %d words for %d rows of %d words, input width %d",
			len(packed), rows, wordsPerRow, in))
	}
	d, ok := p.layers[0].(*Dense)
	if !ok {
		p.in = ensureMatrix(p.in, rows, in)
		for i := 0; i < rows; i++ {
			p.in.SetRowBits(i, packed[i*wordsPerRow:(i+1)*wordsPerRow])
		}
		return p.forward(p.in)
	}
	rest := p.layers[1:]
	relu := false
	if len(rest) > 0 {
		if a, ok := rest[0].(*Activation); ok && a.Kind == ReLU {
			relu = true
			rest = rest[1:]
		}
	}
	out := d.forwardBits(packed, rows, wordsPerRow, relu)
	for _, l := range rest {
		out = l.Forward(out, false)
	}
	return out
}

// forwardBits computes x·W + b for packed {0,1} rows into the layer's
// output scratch, applying ReLU in the same pass when relu is set
// (a separate Activation pass over the chunk costs a second trip
// through memory; see DESIGN.md §5). Rows are independent, so the
// row partition is invisible in the result.
func (d *Dense) forwardBits(packed []uint64, rows, wordsPerRow int, relu bool) *Matrix {
	d.out = ensureMatrix(d.out, rows, d.Out)
	parallelRows(rows, rows*d.In*d.Out, func(lo, hi int) {
		d.forwardBitsRows(packed, wordsPerRow, lo, hi, relu)
	})
	return d.out
}

// forwardBitsTrain is forwardBits without ReLU on the calling
// goroutine, for the training engine's first Dense replica: the
// following Activation caches the pre-activation it needs for its
// backward pass.
func (d *Dense) forwardBitsTrain(packed []uint64, rows, wordsPerRow int) *Matrix {
	d.out = ensureMatrix(d.out, rows, d.Out)
	d.forwardBitsRows(packed, wordsPerRow, 0, rows, false)
	return d.out
}

// forwardBitsRows computes rows [lo, hi) of forwardBits into d.out.
func (d *Dense) forwardBitsRows(packed []uint64, wordsPerRow, lo, hi int, relu bool) {
	m := d.Out
	for i := lo; i < hi; i++ {
		orow := d.out.Data[i*m : (i+1)*m]
		zeroFloats(orow)
		addSetRows(orow, d.w.W, packed[i*wordsPerRow:(i+1)*wordsPerRow], d.In)
		if relu {
			for j, bv := range d.b.W {
				orow[j] = reluBits(orow[j] + bv)
			}
		} else {
			for j, bv := range d.b.W {
				orow[j] += bv
			}
		}
	}
}

// backwardBits accumulates the weight and bias gradients of a
// forwardBitsTrain pass whose output gradient is g. Weight-gradient row
// k is Σ g[n] over the shard's samples n with bit k set. The float path
// (mulTNAcc over the {0,1} input) adds those rows in ascending n, one
// exact 1·g[n] product and one rounding each; this transposes the
// shard's bits into per-feature sample masks and adds the same rows in
// the same order through addSetRows, so the gradient bytes match.
func (d *Dense) backwardBits(packed []uint64, rows, wordsPerRow int, g *Matrix) {
	nb := (rows + 63) / 64
	if cap(d.colBits) < d.In*nb {
		d.colBits = make([]uint64, d.In*nb)
	}
	cols := d.colBits[:d.In*nb]
	clear(cols)
	nw := (d.In + 63) / 64
	for n := 0; n < rows; n++ {
		blk, bit := n>>6, uint64(1)<<(n&63)
		for wi, word := range packed[n*wordsPerRow : n*wordsPerRow+nw] {
			for word = inputWord(word, wi, d.In); word != 0; word &= word - 1 {
				k := wi*64 + mathbits.TrailingZeros64(word)
				cols[k*nb+blk] |= bit
			}
		}
	}
	m := d.Out
	for k := 0; k < d.In; k++ {
		addSetRows(d.w.Grad[k*m:(k+1)*m], g.Data, cols[k*nb:(k+1)*nb], rows)
	}
	colSumsAcc(d.b.Grad, g)
}

// inputWord returns word wi of a packed row with the bits at or beyond
// feature n cleared.
func inputWord(word uint64, wi, n int) uint64 {
	if r := n - wi*64; r < 64 {
		word &= 1<<uint(r) - 1
	}
	return word
}

// addSetRows adds into o the rows src[k*len(o) : (k+1)*len(o)] for
// every bit k < n set in the packed mask, in ascending k, two at a
// time through addRowPair: the zero-skip kernels' chain for a {0,1}
// operand. The forward pass uses it with a row's feature bits over the
// weight rows, the weight gradient with a feature's sample mask over
// the output-gradient rows.
func addSetRows(o, src []float64, mask []uint64, n int) {
	m := len(o)
	k0 := -1 // a set bit waiting for its pair
	for wi, word := range mask[:(n+63)/64] {
		for word = inputWord(word, wi, n); word != 0; word &= word - 1 {
			k := wi*64 + mathbits.TrailingZeros64(word)
			if k0 < 0 {
				k0 = k
				continue
			}
			addRowPair(o, src[k0*m:(k0+1)*m], src[k*m:(k+1)*m])
			k0 = -1
		}
	}
	if k0 >= 0 {
		addRow(o, src[k0*m:(k0+1)*m])
	}
}

// addRowPair adds b0 and then b1 into o, one rounding each: the
// zero-skip kernel's chain for two consecutive inputs equal to 1.
func addRowPair(o, b0, b1 []float64) {
	for j := addRowPairAccel(o, b0, b1); j < len(o); j++ {
		t := o[j] + b0[j]
		o[j] = t + b1[j]
	}
}

// addRow adds b0 into o, one rounding per element.
func addRow(o, b0 []float64) {
	for j := addRowAccel(o, b0); j < len(o); j++ {
		o[j] += b0[j]
	}
}
