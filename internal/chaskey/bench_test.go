package chaskey_test

import (
	"testing"

	"repro/internal/chaskey"
)

// BenchmarkChaskeyPermute measures the sampler's hot loop at the
// registered 3-round depth: two Permute calls on a state pair.
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
}
