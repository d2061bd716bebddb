// Tests and microbenchmarks for the ×8-interleaved permutation.
// External test package so the property tests can go through
// internal/testkit (which imports gimli).
package gimli_test

import (
	"fmt"
	"testing"

	"repro/internal/gimli"
	"repro/internal/prng"
	"repro/internal/testkit"
)

// octet is eight independent states plus a round count.
type octet struct {
	S      [8]gimli.State
	Rounds int
}

func octetCases() testkit.Gen[octet] {
	st := testkit.GimliState()
	return testkit.Gen[octet]{
		Name: "gimli octet",
		Generate: func(r *prng.Rand) octet {
			var q octet
			for i := range q.S {
				q.S[i] = st.Generate(r)
			}
			q.Rounds = r.Intn(gimli.FullRounds + 1)
			return q
		},
		Shrink: func(v octet) []octet {
			var out []octet
			if v.Rounds > 0 {
				w := v
				w.Rounds--
				out = append(out, w)
			}
			return out
		},
		Format: func(v octet) string {
			return fmt.Sprintf("rounds=%d s0=%08x", v.Rounds, [12]uint32(v.S[0]))
		},
	}
}

// TestPermuteRounds8MatchesScalar: the ×8 kernel is bit-identical to
// eight scalar PermuteRounds calls for every round count in [0, 24].
func TestPermuteRounds8MatchesScalar(t *testing.T) {
	testkit.Check(t, "gimli-permute8-vs-scalar", octetCases(), func(q octet) error {
		want := q.S
		for i := range want {
			gimli.PermuteRounds(&want[i], q.Rounds)
		}
		got := q.S
		ptrs := [8]*gimli.State{&got[0], &got[1], &got[2], &got[3], &got[4], &got[5], &got[6], &got[7]}
		gimli.PermuteRounds8(&ptrs, q.Rounds)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("state %d diverged over %d rounds", i, q.Rounds)
			}
		}
		return nil
	})
}

// TestPermuteFrom8MatchesScalar covers interior round windows, which
// exercise every swap/constant phase alignment.
func TestPermuteFrom8MatchesScalar(t *testing.T) {
	r := prng.New(11)
	var s [8]gimli.State
	for start := 0; start <= gimli.FullRounds; start++ {
		for n := 0; n <= start; n++ {
			for i := range s {
				for w := range s[i] {
					s[i][w] = r.Uint32()
				}
			}
			want := s
			for i := range want {
				gimli.PermuteFrom(&want[i], start, n)
			}
			got := s
			ptrs := [8]*gimli.State{&got[0], &got[1], &got[2], &got[3], &got[4], &got[5], &got[6], &got[7]}
			gimli.PermuteFrom8(&ptrs, start, n)
			if got != want {
				t.Fatalf("start=%d n=%d: ×8 output differs from scalar", start, n)
			}
		}
	}
}

// TestPermute8Full: the full-permutation convenience wrapper.
func TestPermute8Full(t *testing.T) {
	r := prng.New(13)
	var s [8]gimli.State
	for i := range s {
		for w := range s[i] {
			s[i][w] = r.Uint32()
		}
	}
	want := s
	for i := range want {
		gimli.Permute(&want[i])
	}
	got := s
	ptrs := [8]*gimli.State{&got[0], &got[1], &got[2], &got[3], &got[4], &got[5], &got[6], &got[7]}
	gimli.Permute8(&ptrs)
	if got != want {
		t.Fatal("Permute8 differs from eight Permute calls")
	}
}

func TestPermuteFrom8RangeChecks(t *testing.T) {
	for _, c := range []struct{ start, n int }{{24, -1}, {25, 1}, {3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("start=%d n=%d: no panic", c.start, c.n)
				}
			}()
			var s [8]gimli.State
			ptrs := [8]*gimli.State{&s[0], &s[1], &s[2], &s[3], &s[4], &s[5], &s[6], &s[7]}
			gimli.PermuteFrom8(&ptrs, c.start, c.n)
		}()
	}
}

// BenchmarkPermuteRounds is the scalar baseline at the paper's 8-round
// budget: four states permuted one at a time, so ns/op is half the
// work of BenchmarkPermuteRounds8.
func BenchmarkPermuteRounds(b *testing.B) {
	var s [4]gimli.State
	for i := range s {
		for w := range s[i] {
			s[i][w] = uint32(17*i + w + 1)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range s {
			gimli.PermuteRounds(&s[j], 8)
		}
	}
	b.ReportMetric(4, "states/op")
}

// BenchmarkPermuteRounds8 measures the ×8 kernel; ns/op covers eight
// states, i.e. twice the work of the scalar benchmark.
func BenchmarkPermuteRounds8(b *testing.B) {
	var s [8]gimli.State
	for i := range s {
		for w := range s[i] {
			s[i][w] = uint32(17*i + w + 1)
		}
	}
	ptrs := [8]*gimli.State{&s[0], &s[1], &s[2], &s[3], &s[4], &s[5], &s[6], &s[7]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gimli.PermuteRounds8(&ptrs, 8)
	}
	b.ReportMetric(8, "states/op")
}
