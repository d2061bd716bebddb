package main

import (
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want float64 // 0 means refused
	}{
		{50, 20, 10},
		{50, 19, 0},
		{90, 100, 90},
		{90, 99, 0},
		{99, 1000, 990},
		{99, 999, 0},
		{90, 0, 0},
	} {
		q, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples: got %v, want refusal", tc.p, tc.n, q.Value)
			}
			continue
		}
		if err != nil || q.Value != tc.want || q.N != tc.n {
			t.Errorf("p%g of %d samples: got %+v, %v; want value %v with n=%d", tc.p, tc.n, q, err, tc.want, tc.n)
		}
	}
	for p, n := range map[float64]int{50: 20, 90: 100, 99: 1000} {
		if got := needed(p); got != n {
			t.Errorf("needed(%g) = %d, want %d", p, got, n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(s int) time.Time { return time.Unix(0, 0).Add(time.Duration(s) * time.Second) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 10 * time.Second},
		{"disjoint", []interval{iv(1, 3), iv(5, 6)}, 7 * time.Second},
		// Overlaps count once; parts outside the parent do not count.
		{"overlapping and clipped", []interval{iv(2, 5), iv(1, 3), iv(7, 8), iv(9, 12), iv(-4, -1)}, 4 * time.Second},
		{"covering", []interval{iv(-1, 11)}, 0},
	} {
		if got := selfTime(iv(0, 10), tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTallyCountsEveryOutcome(t *testing.T) {
	tl := newTally()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				kind := "classify"
				if i%4 == 0 {
					kind = "distinguish"
				}
				tl.sent(kind)
				tl.done(kind, !(g == 0 && i == 8))
			}
		}(g)
	}
	wg.Wait()
	tl.sent("check") // sent but never finished: a failure, not a skip
	got := tl.snapshot()
	if c := got["classify"]; c != (kindCount{Sent: 300, Succeeded: 300}) {
		t.Errorf("classify %+v", c)
	}
	if c := got["distinguish"]; c != (kindCount{Sent: 100, Succeeded: 99, Failed: 1}) {
		t.Errorf("distinguish %+v", c)
	}
	if a, f := tl.totals(); a != 401 || f != 2 {
		t.Errorf("totals: attempted %d failed %d, want 401 and 2", a, f)
	}
}
