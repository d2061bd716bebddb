package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise, so it is refused.
const minBeyond = 10

// quantile is one percentile of a latency sample, with the sample
// count it rests on.
type quantile struct {
	P     float64 // percentile, 0 < P < 100
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile of xs. It fails
// when fewer than ten samples lie beyond that rank.
func percentile(xs []float64, p float64) (quantile, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return quantile{}, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return quantile{}, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{P: p, Value: s[rank-1], N: n}, nil
}

// median is the middle of a few repeated measurements (iterations,
// set-ups), where no tail is reported and the ten-beyond rule does not
// apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// interval is a closed time range.
type interval struct{ Start, End time.Time }

func (iv interval) dur() time.Duration { return iv.End.Sub(iv.Start) }

// selfTime is parent's duration minus the part of it that the children
// cover. Children may overlap each other or stick out of the parent;
// only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// kindCount is the sent/succeeded/failed tally of one request kind.
type kindCount struct{ Sent, Succeeded, Failed int }

// tally counts operations per kind. Every operation that is sent ends
// as exactly one of succeeded or failed; nothing is skipped.
type tally struct {
	mu sync.Mutex
	m  map[string]*kindCount
}

func newTally() *tally { return &tally{m: map[string]*kindCount{}} }

func (t *tally) get(kind string) *kindCount {
	c := t.m[kind]
	if c == nil {
		c = &kindCount{}
		t.m[kind] = c
	}
	return c
}

// sent records that one operation of kind was attempted.
func (t *tally) sent(kind string) {
	t.mu.Lock()
	t.get(kind).Sent++
	t.mu.Unlock()
}

// done records the outcome of one sent operation of kind.
func (t *tally) done(kind string, ok bool) {
	t.mu.Lock()
	c := t.get(kind)
	if ok {
		c.Succeeded++
	} else {
		c.Failed++
	}
	t.mu.Unlock()
}

// snapshot copies the per-kind counts.
func (t *tally) snapshot() map[string]kindCount {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]kindCount, len(t.m))
	for k, c := range t.m {
		out[k] = *c
	}
	return out
}

// totals sums every kind: attempted is everything sent, failed is
// everything not known to have succeeded (sent but never finished
// counts as failed).
func (t *tally) totals() (attempted, failed int) {
	for _, c := range t.snapshot() {
		attempted += c.Sent
		failed += c.Sent - c.Succeeded
	}
	return attempted, failed
}
