package nn

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/prng"
)

func TestDropoutInferenceIsIdentity(t *testing.T) {
	d := NewDropout(0.5, 4, 1)
	r := prng.New(1)
	x := randMatrix(r, 3, 4)
	out := d.Forward(x, false)
	if !Equalish(out, x, 0) {
		t.Fatal("inference-mode dropout changed the input")
	}
}

func TestDropoutTrainingDropsAndScales(t *testing.T) {
	d := NewDropout(0.5, 100, 2)
	x := NewMatrix(20, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.Forward(x, true)
	zeros, scaled := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2: // 1/(1-0.5)
			scaled++
		default:
			t.Fatalf("unexpected output %v", v)
		}
	}
	frac := float64(zeros) / float64(len(out.Data))
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("drop fraction %v far from 0.5", frac)
	}
	if scaled == 0 {
		t.Fatal("nothing survived")
	}
	// Expected value preserved: mean ≈ 1.
	sum := 0.0
	for _, v := range out.Data {
		sum += v
	}
	if mean := sum / float64(len(out.Data)); math.Abs(mean-1) > 0.1 {
		t.Fatalf("inverted-dropout mean %v", mean)
	}
}

func TestDropoutBackwardUsesSameMask(t *testing.T) {
	d := NewDropout(0.5, 10, 3)
	r := prng.New(3)
	x := randMatrix(r, 4, 10)
	out := d.Forward(x, true)
	grad := NewMatrix(4, 10)
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	back := d.Backward(grad)
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatalf("mask mismatch at %d", i)
		}
	}
}

func TestDropoutZeroRate(t *testing.T) {
	d := NewDropout(0, 4, 4)
	r := prng.New(4)
	x := randMatrix(r, 2, 4)
	if !Equalish(d.Forward(x, true), x, 0) {
		t.Fatal("p=0 dropout changed the input")
	}
	g := randMatrix(r, 2, 4)
	if !Equalish(d.Backward(g), g, 0) {
		t.Fatal("p=0 backward changed the gradient")
	}
}

func TestDropoutValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewDropout(-0.1, 4, 1) },
		func() { NewDropout(1.0, 4, 1) },
		func() { NewDropout(0.5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid dropout config accepted")
				}
			}()
			f()
		}()
	}
}

func TestDropoutInNetworkTrains(t *testing.T) {
	r := prng.New(5)
	net, err := NewNetwork(
		NewDense(4, 16, r), NewActivation(ReLU, 16),
		NewDropout(0.2, 16, 5),
		NewDense(16, 2, r),
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	x := NewMatrix(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		if x.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	hist, err := net.Fit(x, y, FitConfig{Epochs: 20, BatchSize: 32, Optimizer: NewAdam(0.01), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Acc[len(hist.Acc)-1] < 0.9 {
		t.Fatalf("dropout net failed to learn: %v", hist.Acc[len(hist.Acc)-1])
	}
	acc, _ := net.Evaluate(x, y)
	if acc < 0.9 {
		t.Fatalf("inference accuracy %v", acc)
	}
}

func TestDropoutSerializeRoundTrip(t *testing.T) {
	r := prng.New(6)
	net, err := NewNetwork(
		NewDense(3, 5, r),
		NewDropout(0.3, 5, 6),
		NewDense(5, 2, r),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := randMatrix(r, 2, 3)
	// Inference must match exactly (dropout is identity there).
	if !Equalish(net.Probs(x), back.Probs(x), 1e-12) {
		t.Fatal("dropout model round trip differs at inference")
	}
}

func TestCyclicLR(t *testing.T) {
	sched := CyclicLR(0.001, 0.01, 10)
	if sched(0) != 0.001 {
		t.Fatalf("epoch 0 lr %v", sched(0))
	}
	if sched(5) != 0.01 {
		t.Fatalf("epoch 5 lr %v", sched(5))
	}
	// Mid-ramp values sit strictly between.
	v := sched(2)
	if v <= 0.001 || v >= 0.01 {
		t.Fatalf("epoch 2 lr %v", v)
	}
	// Periodicity.
	if sched(10) != sched(0) || sched(17) != sched(7) {
		t.Fatal("schedule not periodic")
	}
	// Degenerate period clamps rather than dividing by zero.
	if got := CyclicLR(1, 2, 0)(0); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("degenerate period produced %v", got)
	}
}

func TestFitWithSchedule(t *testing.T) {
	r := prng.New(7)
	net, _ := MLP(3, []int{6}, 2, ReLU, r)
	x := randMatrix(r, 50, 3)
	y := make([]int, 50)
	for i := range y {
		if x.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	_, err := net.Fit(x, y, FitConfig{
		Epochs:     6,
		Optimizer:  NewAdam(0),
		LRSchedule: CyclicLR(0.0005, 0.005, 4),
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scheduleUnsupported is an optimizer without SetLR, for validation.
type scheduleUnsupported struct{}

func (scheduleUnsupported) Name() string                 { return "fixed" }
func (scheduleUnsupported) beginStep([]*Param)           {}
func (scheduleUnsupported) update(int, *Param, int, int) {}

func TestFitRejectsScheduleOnFixedOptimizer(t *testing.T) {
	r := prng.New(8)
	net, _ := MLP(3, []int{4}, 2, ReLU, r)
	x := randMatrix(r, 10, 3)
	y := make([]int, 10)
	_, err := net.Fit(x, y, FitConfig{
		Epochs:     1,
		Optimizer:  scheduleUnsupported{},
		LRSchedule: CyclicLR(0.001, 0.01, 4),
	})
	if err == nil {
		t.Fatal("schedule on non-schedulable optimizer accepted")
	}
}
