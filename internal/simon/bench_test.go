package simon_test

import (
	"testing"

	"repro/internal/simon"
)

// BenchmarkSimonEncrypt measures the sampler's hot loop at the
// registered depths: re-key from scratch, then two EncryptRounds calls
// under one key (8 rounds) or, for the related-key sampler, under K and
// K ⊕ ∇ (10 rounds).
func BenchmarkSimonEncrypt(b *testing.B) {
	key := simon.Key{0x1918, 0x1110, 0x0908, 0x0100}
	p := simon.Block{X: 0x6565, Y: 0x6877}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		var sink simon.Block
		for i := 0; i < b.N; i++ {
			var c simon.Cipher
			c.Expand(key)
			sink = c.EncryptRounds(p, 8).XOR(c.EncryptRounds(p.XOR(simon.NDDelta), 8))
		}
		_ = sink
	})
	b.Run("cross-key", func(b *testing.B) {
		b.ReportAllocs()
		var sink simon.Block
		for i := 0; i < b.N; i++ {
			var ca, cb simon.Cipher
			ca.Expand(key)
			cb.Expand(key.XOR(simon.LuKeyDelta))
			sink = ca.EncryptRounds(p, 10).XOR(cb.EncryptRounds(p.XOR(simon.NDDelta), 10))
		}
		_ = sink
	})
}
