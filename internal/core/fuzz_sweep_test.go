package core

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/chaskey"
	"repro/internal/gift"
	"repro/internal/prng"
	"repro/internal/simeck"
	"repro/internal/simon"
)

// The sweep fuzz targets drive a scenario's packed SampleBatch fast
// path and its scalar Sample path from fuzzer-chosen seeds, rounds and
// differences, and require bit-identical output and generator
// consumption — the Scenario packing contract under adversarial inputs
// rather than the conformance suite's random draws. They live in
// package core (not testkit) because testkit imports core.

// crossCheckBatch asserts SampleBatch(seed, class) equals the packed
// Sample(seed, class) and consumed the same generator state.
func crossCheckBatch(t *testing.T, s Scenario, seed uint64, class int) {
	t.Helper()
	r := prng.NewStream(seed, 0)
	vec := s.Sample(r, class)
	want := make([]uint64, bits.PackedWords(s.FeatureLen()))
	bits.PackFloats(want, vec)
	rb := prng.NewStream(seed, 0)
	got := make([]uint64, len(want))
	for i := range got {
		got[i] = ^uint64(0)
	}
	s.SampleBatch(rb, class, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s class %d seed %#x: SampleBatch word %d = %#x, Sample packs to %#x",
				s.Name(), class, seed, i, got[i], want[i])
		}
	}
	if r.Uint64() != rb.Uint64() {
		t.Fatalf("%s class %d seed %#x: SampleBatch consumed different generator state", s.Name(), class, seed)
	}
}

// FuzzSimonEncrypt cross-checks the SIMON scenario's packed and scalar
// sampling paths over fuzzer-chosen seeds, rounds, plaintext and key
// differences (single-key and related-key), and the cipher's own
// round-trip for the same parameters.
func FuzzSimonEncrypt(f *testing.F) {
	f.Add(uint64(1), uint(8), uint16(0), uint16(0x40), uint16(0x40))
	f.Add(uint64(2), uint(11), uint16(0x8000), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint, dx, dy, dk uint16) {
		n := int(rounds%simon.Rounds) + 1
		s, err := CustomSimonScenario(n, simon.Block{X: dx, Y: dy}, simon.Key{0, 0, 0, dk})
		if err != nil {
			return // both differences zero — rejected by construction
		}
		crossCheckBatch(t, s, seed, 0)
		crossCheckBatch(t, s, seed, 1)
		r := prng.NewStream(seed, 0)
		c := simon.New(simon.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
		p := simon.Block{X: r.Uint16(), Y: r.Uint16()}
		if got := c.DecryptRounds(c.EncryptRounds(p, n), n); got != p {
			t.Fatalf("round trip broke at %d rounds: %v != %v", n, got, p)
		}
	})
}

// FuzzSimeckEncrypt is FuzzSimonEncrypt for the SIMECK scenario.
func FuzzSimeckEncrypt(f *testing.F) {
	f.Add(uint64(1), uint(9), uint16(0), uint16(0x02), uint16(0x02))
	f.Add(uint64(2), uint(12), uint16(0x8000), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint, dx, dy, dk uint16) {
		n := int(rounds%simeck.Rounds) + 1
		s, err := CustomSimeckScenario(n, simeck.Block{X: dx, Y: dy}, simeck.Key{0, 0, 0, dk})
		if err != nil {
			return
		}
		crossCheckBatch(t, s, seed, 0)
		crossCheckBatch(t, s, seed, 1)
		r := prng.NewStream(seed, 0)
		c := simeck.New(simeck.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
		p := simeck.Block{X: r.Uint16(), Y: r.Uint16()}
		if got := c.DecryptRounds(c.EncryptRounds(p, n), n); got != p {
			t.Fatalf("round trip broke at %d rounds: %v != %v", n, got, p)
		}
	})
}

// FuzzChaskeyPermute cross-checks the Chaskey scenario's packed and
// scalar sampling paths over fuzzer-chosen seeds, rounds and state
// differences, and checks InvPermute inverts Permute for the same
// parameters.
func FuzzChaskeyPermute(f *testing.F) {
	f.Add(uint64(1), uint(3), uint32(0), uint32(0x80000000))
	f.Add(uint64(2), uint(8), uint32(1), uint32(0))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint, d0, d1 uint32) {
		n := int(rounds%chaskey.LTSRounds) + 1
		s, err := CustomChaskeyScenario(n, chaskey.State{d0, d1, 0, 0})
		if err != nil {
			return // zero difference — rejected by construction
		}
		crossCheckBatch(t, s, seed, 0)
		crossCheckBatch(t, s, seed, 1)
		r := prng.NewStream(seed, 0)
		v := chaskey.State{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
		if got := chaskey.InvPermute(chaskey.Permute(v, n), n); got != v {
			t.Fatalf("InvPermute broke at %d rounds: %08x != %08x", n, got, v)
		}
	})
}

// FuzzGift64Encrypt cross-checks the GIFT-64 scenario's packed and
// scalar sampling paths over fuzzer-chosen seeds and rounds, and checks
// the cipher's own round-trip for the same parameters.
func FuzzGift64Encrypt(f *testing.F) {
	f.Add(uint64(1), uint(4))
	f.Add(uint64(2), uint(28))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint) {
		n := int(rounds%gift.Rounds64) + 1
		s, err := NewGift64Scenario(n)
		if err != nil {
			t.Fatal(err)
		}
		crossCheckBatch(t, s, seed, 0)
		crossCheckBatch(t, s, seed, 1)
		r := prng.NewStream(seed, 0)
		var c gift.Cipher64
		c.Expand([8]uint16{
			r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
			r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		})
		p := r.Uint64()
		if got := c.DecryptRounds(c.EncryptRounds(p, n), n); got != p {
			t.Fatalf("round trip broke at %d rounds: %016x != %016x", n, got, p)
		}
	})
}
