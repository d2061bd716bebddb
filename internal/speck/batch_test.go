// Tests and microbenchmarks for the interleaved pair-encryption path.
// External test package: testkit imports speck, so these cannot live in
// package speck.
package speck_test

import (
	"fmt"
	"testing"

	"repro/internal/speck"
	"repro/internal/testkit"
)

// TestEncryptPairMatchesScalar: the interleaved pair encryption is
// bit-identical to two EncryptRounds calls for every key, block pair
// and round count in [0, 22]. The second block is the Gohr-difference
// partner of the first — exactly the pair the sampler encrypts.
func TestEncryptPairMatchesScalar(t *testing.T) {
	testkit.Check(t, "speck-pair-vs-scalar", testkit.SpeckCases(), func(c testkit.SpeckCase) error {
		ci := speck.New(c.Key)
		other := c.Block.XOR(speck.GohrDelta)
		wantA := ci.EncryptRounds(c.Block, c.Rounds)
		wantB := ci.EncryptRounds(other, c.Rounds)
		gotA, gotB := ci.EncryptPairRounds(c.Block, other, c.Rounds)
		if gotA != wantA || gotB != wantB {
			return fmt.Errorf("pair encrypt diverged over %d rounds: (%v,%v) vs (%v,%v)",
				c.Rounds, gotA, gotB, wantA, wantB)
		}
		return nil
	})
}

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

func TestEncryptPairRangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncryptPairRounds accepted 23 rounds")
		}
	}()
	var c speck.Cipher
	c.EncryptPairRounds(speck.Block{}, speck.Block{}, speck.Rounds+1)
}

// BenchmarkSpeckEncrypt compares the one-at-a-time sampler inner loop
// (key expansion + two EncryptRounds calls at the 7-round regime)
// against the interleaved pair path on the same work.
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
	b.Run("pair", func(b *testing.B) {
		b.ReportAllocs()
		var sink speck.Block
		for i := 0; i < b.N; i++ {
			var c speck.Cipher
			c.Expand(key)
			x, y := c.EncryptPairRounds(p, p.XOR(speck.GohrDelta), 7)
			sink = x.XOR(y)
		}
		_ = sink
	})
}
