// Tests and microbenchmarks for the sampler's stack-cipher path:
// in-place re-keying with Expand, then the plaintext pair encrypted by
// two EncryptRounds calls. External test package: testkit imports
// speck, so these cannot live in package speck.
package speck_test

import (
	"fmt"
	"testing"

	"repro/internal/speck"
	"repro/internal/testkit"
)

// TestExpandMatchesNew: re-keying a Cipher in place yields the same
// schedule as a fresh New, for a second key after a first expansion.
func TestExpandMatchesNew(t *testing.T) {
	testkit.Check(t, "speck-expand-vs-new", testkit.SpeckCases(), func(c testkit.SpeckCase) error {
		var ci speck.Cipher
		ci.Expand([4]uint16{0xdead, 0xbeef, 0x0123, 0x4567}) // dirty the schedule first
		ci.Expand(c.Key)
		want := speck.New(c.Key)
		for i := 0; i < speck.Rounds; i++ {
			if ci.RoundKey(i) != want.RoundKey(i) {
				return fmt.Errorf("round key %d: Expand %04x vs New %04x", i, ci.RoundKey(i), want.RoundKey(i))
			}
		}
		return nil
	})
}

// TestEncryptPairRangeCheck: EncryptRounds on a zero-value stack
// Cipher, the value the sampler re-keys with Expand, rejects 23 rounds.
func TestEncryptPairRangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncryptRounds accepted 23 rounds")
		}
	}()
	var c speck.Cipher
	c.EncryptRounds(speck.Block{}, speck.Rounds+1)
}

// BenchmarkSpeckEncrypt measures the sampler inner loop: key expansion
// and two EncryptRounds calls at the 7-round regime.
func BenchmarkSpeckEncrypt(b *testing.B) {
	key := [4]uint16{0x1918, 0x1110, 0x0908, 0x0100}
	p := speck.Block{X: 0x6574, Y: 0x694c}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		var sink speck.Block
		for i := 0; i < b.N; i++ {
			var c speck.Cipher
			c.Expand(key)
			sink = c.EncryptRounds(p, 7).XOR(c.EncryptRounds(p.XOR(speck.GohrDelta), 7))
		}
		_ = sink
	})
}
