package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// forceScalarMul runs fn with the AVX2 kernels disabled.
func forceScalarMul(fn func()) {
	saved := useMulAVX2
	useMulAVX2 = false
	defer func() { useMulAVX2 = saved }()
	fn()
}

func matricesBitIdentical(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x", what,
				i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// randPackedRows draws rows of wpr words whose bit density varies from
// row to row (all-zero and all-one rows included). Bits beyond the
// input width are set at random too: both paths must ignore them.
func randPackedRows(r *prng.Rand, rows, wpr int) []uint64 {
	packed := make([]uint64, rows*wpr)
	for i := 0; i < rows; i++ {
		density := i % 5 // 0, 1/4, 1/2, 3/4, 1 of the bits set
		for w := 0; w < wpr; w++ {
			var v uint64
			for b := 0; b < 64; b++ {
				if r.Intn(4) < density {
					v |= 1 << b
				}
			}
			packed[i*wpr+w] = v
		}
	}
	return packed
}

// checkPredictBits compares PredictBitsInto with SetRowBits +
// PredictInto on the same rows, logits bit for bit, under the current
// kernel choice.
func checkPredictBits(t *testing.T, what string, net *Network, packed []uint64, rows, wpr int) {
	t.Helper()
	x := NewMatrix(rows, net.InDim())
	for i := 0; i < rows; i++ {
		x.SetRowBits(i, packed[i*wpr:(i+1)*wpr])
	}
	want := net.NewPredictor().forward(x).Clone()
	p := net.NewPredictor()
	got := p.forwardBits(packed, rows, wpr).Clone()
	matricesBitIdentical(t, what+" logits", got, want)
	preds := p.PredictBitsInto(nil, packed, rows, wpr)
	ref := net.NewPredictor().PredictInto(nil, x)
	for i := range ref {
		if preds[i] != ref[i] {
			t.Fatalf("%s: row %d predicted %d, float path %d", what, i, preds[i], ref[i])
		}
	}
}

// TestPredictBitsMatchesFloatPath: the bit-driven first layer must
// reproduce the float path to the last bit with the AVX2 kernels on and
// off — at widths around the word boundaries, output widths that are
// not a multiple of the 4-lane kernel, with ReLU (fused), LeakyReLU,
// another activation or no activation after layer 0, for Table 3 MLPs,
// and through the fallback for non-Dense first layers.
func TestPredictBitsMatchesFloatPath(t *testing.T) {
	r := prng.New(0xb175)
	type net struct {
		name string
		n    *Network
	}
	var nets []net
	add := func(name string, n *Network, err error) {
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net{name, n})
	}
	for _, cols := range []int{1, 63, 64, 65, 128, 200} {
		for _, h := range []int{1, 7, 13, 130} {
			n, err := MLP(cols, []int{h}, 3, ReLU, r)
			add(fmt.Sprintf("relu/%d→%d", cols, h), n, err)
			n, err = MLP(cols, []int{h, 5}, 2, LeakyReLU, r)
			add(fmt.Sprintf("leaky/%d→%d", cols, h), n, err)
			n, err = NewNetwork(NewDense(cols, h, r), NewDense(h, 2, r))
			add(fmt.Sprintf("linear/%d→%d", cols, h), n, err)
			n, err = NewNetwork(NewDense(cols, h, r), NewActivation(Tanh, h), NewDense(h, 2, r))
			add(fmt.Sprintf("tanh/%d→%d", cols, h), n, err)
		}
		n, err := NewNetwork(NewDense(cols, 6, r))
		add(fmt.Sprintf("dense-only/%d", cols), n, err)
	}
	for _, arch := range []string{"mlp1", "mlp5", "cnn1", "lstm1"} {
		n, err := Table3(arch, 128, r)
		add(arch, n, err)
	}
	for _, nt := range nets {
		// Negative biases make the fused ReLU clamp whole columns.
		for _, p := range nt.n.Params() {
			if len(p.W) == nt.n.layers[0].OutDim() {
				for j := range p.W {
					p.W[j] = r.NormFloat64()
				}
				break
			}
		}
		rowCounts := []int{1, 5, 300}
		if nt.n.ParamCount() > 1e5 {
			rowCounts = []int{1, 64} // still above parallelRows' inline cut-off
		}
		for _, rows := range rowCounts {
			words := (nt.n.InDim() + 63) / 64
			for _, wpr := range []int{words, words + 1} {
				packed := randPackedRows(r, rows, wpr)
				what := fmt.Sprintf("%s rows=%d wpr=%d", nt.name, rows, wpr)
				checkPredictBits(t, what, nt.n, packed, rows, wpr)
				forceScalarMul(func() { checkPredictBits(t, what+" scalar", nt.n, packed, rows, wpr) })
			}
		}
	}
}

// TestPredictBitsReusesScratch: repeated calls with a recycled dst and a
// shrinking row count stay correct.
func TestPredictBitsReusesScratch(t *testing.T) {
	r := prng.New(3)
	n, err := MLP(128, []int{16}, 2, ReLU, r)
	if err != nil {
		t.Fatal(err)
	}
	p := n.NewPredictor()
	var dst []int
	for _, rows := range []int{40, 7, 40} {
		packed := randPackedRows(r, rows, 2)
		dst = p.PredictBitsInto(dst, packed, rows, 2)
		x := NewMatrix(rows, 128)
		for i := 0; i < rows; i++ {
			x.SetRowBits(i, packed[2*i:2*i+2])
		}
		want := n.Predict(x)
		if len(dst) != rows {
			t.Fatalf("%d predictions for %d rows", len(dst), rows)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("rows=%d: row %d predicted %d, want %d", rows, i, dst[i], want[i])
			}
		}
	}
}

func TestPredictBitsShapePanics(t *testing.T) {
	n, err := MLP(70, []int{4}, 2, ReLU, prng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		words     int
		rows, wpr int
	}{
		{"row narrower than input", 4, 4, 1},
		{"too few words", 3, 2, 2},
		{"negative rows", 4, -1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PredictBitsInto accepted the shape", c.name)
				}
			}()
			n.NewPredictor().PredictBitsInto(nil, make([]uint64, c.words), c.rows, c.wpr)
		}()
	}
}
