package simeck_test

import (
	"testing"

	"repro/internal/simeck"
)

// BenchmarkSimeckEncrypt measures the sampler's hot loop at the
// registered 8-round depth: re-key from scratch, then the scalar pair
// of encryptions versus the interleaved pair path versus the
// cross-key (related-key) pair path.
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
	b.Run("pair", func(b *testing.B) {
		b.ReportAllocs()
		var sink simeck.Block
		for i := 0; i < b.N; i++ {
			var c simeck.Cipher
			c.Expand(key)
			x, y := c.EncryptPairRounds(p, p.XOR(simeck.NDDelta), 8)
			sink = x.XOR(y)
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
			x, y := simeck.EncryptCrossPairRounds(&ca, &cb, p, p.XOR(simeck.NDDelta), 12)
			sink = x.XOR(y)
		}
		_ = sink
	})
}
