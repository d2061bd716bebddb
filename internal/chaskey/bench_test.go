package chaskey_test

import (
	"testing"

	"repro/internal/chaskey"
)

// BenchmarkChaskeyPermute measures the sampler's hot loop at the
// registered 3-round depth and the full 8-round permutation: scalar
// pair of permutations versus the interleaved pair path.
func BenchmarkChaskeyPermute(b *testing.B) {
	v := chaskey.State{0x833d3433, 0x009f389f, 0x2398e64f, 0x417acf39}
	b.Run("scalar-3r", func(b *testing.B) {
		b.ReportAllocs()
		var sink chaskey.State
		for i := 0; i < b.N; i++ {
			sink = chaskey.Permute(v, 3).XOR(chaskey.Permute(v.XOR(chaskey.NDDelta), 3))
		}
		_ = sink
	})
	b.Run("pair-3r", func(b *testing.B) {
		b.ReportAllocs()
		var sink chaskey.State
		for i := 0; i < b.N; i++ {
			x, y := chaskey.PermutePairRounds(v, v.XOR(chaskey.NDDelta), 3)
			sink = x.XOR(y)
		}
		_ = sink
	})
	b.Run("pair-8r", func(b *testing.B) {
		b.ReportAllocs()
		var sink chaskey.State
		for i := 0; i < b.N; i++ {
			x, y := chaskey.PermutePairRounds(v, v.XOR(chaskey.NDDelta), chaskey.Rounds)
			sink = x.XOR(y)
		}
		_ = sink
	})
}
