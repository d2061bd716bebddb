package simeck_test

import (
	"testing"

	"repro/internal/simeck"
)

// BenchmarkSimeckEncrypt measures the sampler's hot loop at the
// registered depths: re-key from scratch, then two EncryptRounds calls
// under one key (8 rounds) or, for the related-key sampler, under K and
// K ⊕ ∇ (12 rounds).
func BenchmarkSimeckEncrypt(b *testing.B) {
	key := simeck.Key{0x1918, 0x1110, 0x0908, 0x0100}
	p := simeck.Block{X: 0x6565, Y: 0x6877}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		var sink simeck.Block
		for i := 0; i < b.N; i++ {
			var c simeck.Cipher
			c.Expand(key)
			sink = c.EncryptRounds(p, 8).XOR(c.EncryptRounds(p.XOR(simeck.NDDelta), 8))
		}
		_ = sink
	})
	b.Run("cross-key", func(b *testing.B) {
		b.ReportAllocs()
		var sink simeck.Block
		for i := 0; i < b.N; i++ {
			var ca, cb simeck.Cipher
			ca.Expand(key)
			cb.Expand(key.XOR(simeck.LuKeyDelta))
			sink = ca.EncryptRounds(p, 12).XOR(cb.EncryptRounds(p.XOR(simeck.NDDelta), 12))
		}
		_ = sink
	})
}
