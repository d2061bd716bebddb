package nn

import (
	"math"
	"slices"
)

// Optimizer updates parameters from their accumulated gradients. The
// training engine calls beginStep once per step, then update over
// disjoint element ranges [lo, hi) of parameter pi, possibly from
// several goroutines at once; update reads p.Grad[lo:hi] and writes
// only p.W[lo:hi] and its own state for that range. Per-parameter state
// is indexed by the parameter's position in the list beginStep saw; a
// different list starts fresh state.
type Optimizer interface {
	Name() string
	beginStep(params []*Param)
	update(pi int, p *Param, lo, hi int)
}

// newParamState returns zeroed per-parameter state shaped like params.
func newParamState(params []*Param) [][]float64 {
	st := make([][]float64, len(params))
	for i, p := range params {
		st[i] = make([]float64, len(p.W))
	}
	return st
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      [][]float64 // [param] velocity, when Momentum != 0
	params   []*Param
}

// NewSGD constructs SGD with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Name identifies the optimizer.
func (s *SGD) Name() string { return "sgd" }

func (s *SGD) beginStep(params []*Param) {
	if s.Momentum != 0 && (s.vel == nil || !slices.Equal(s.params, params)) {
		s.vel, s.params = newParamState(params), slices.Clone(params)
	}
}

func (s *SGD) update(pi int, p *Param, lo, hi int) {
	w, g := p.W[lo:hi], p.Grad[lo:hi]
	if s.Momentum == 0 {
		for i := range w {
			w[i] -= s.LR * g[i]
		}
		return
	}
	v := s.vel[pi][lo:hi]
	for i := range w {
		v[i] = s.Momentum*v[i] - s.LR*g[i]
		w[i] += v[i]
	}
}

// Adam is the Kingma–Ba optimizer, the one the paper trains with.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	c1, c2                float64     // this step's bias corrections
	m, v                  [][]float64 // [param] moment estimates
	params                []*Param
}

// NewAdam constructs Adam with the standard defaults (lr 0.001,
// β1 0.9, β2 0.999, ε 1e−8) unless overridden; pass lr ≤ 0 for the
// default rate.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		lr = 0.001
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Name identifies the optimizer.
func (a *Adam) Name() string { return "adam" }

// beginStep advances the step count and its bias corrections.
func (a *Adam) beginStep(params []*Param) {
	if a.m == nil || !slices.Equal(a.params, params) {
		a.m, a.v, a.params = newParamState(params), newParamState(params), slices.Clone(params)
	}
	a.t++
	a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
}

// update applies one Adam update with bias correction to a range.
func (a *Adam) update(pi int, p *Param, lo, hi int) {
	w, gs := p.W[lo:hi], p.Grad[lo:hi]
	m, v := a.m[pi][lo:hi], a.v[pi][lo:hi]
	c1, c2 := a.c1, a.c2
	for i, g := range gs {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mHat := m[i] / c1
		vHat := v[i] / c2
		w[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	}
}
