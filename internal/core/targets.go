package core

// This file provides scenarios for the additional targets the paper
// points at: GIFT (named in the conclusion as the Markov cipher to try
// next) and the two non-Markov stream ciphers of Section 2.1, Salsa20
// and Trivium. Each reuses the same Algorithm 2 machinery as the GIMLI
// headline experiments.

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/gift"
	"repro/internal/prng"
	"repro/internal/salsa"
	"repro/internal/trivium"
)

// Gift64Scenario is a real-vs-random distinguisher for round-reduced
// GIFT-64: class 1 samples are output differences of the keyed cipher
// under a fixed plaintext difference (fresh random key per sample),
// class 0 samples are uniform 64-bit differences.
type Gift64Scenario struct {
	Rounds int
	Delta  uint64
}

// NewGift64Scenario builds the scenario with a single-bit plaintext
// difference (bit 1, i.e. one active S-box).
func NewGift64Scenario(rounds int) (*Gift64Scenario, error) {
	if rounds < 1 || rounds > gift.Rounds64 {
		return nil, fmt.Errorf("core: invalid GIFT-64 round count %d", rounds)
	}
	return &Gift64Scenario{Rounds: rounds, Delta: 0x2}, nil
}

// Name identifies the scenario.
func (s *Gift64Scenario) Name() string { return fmt.Sprintf("gift64-%dr-real-vs-random", s.Rounds) }

// Classes returns 2 (real, random).
func (s *Gift64Scenario) Classes() int { return 2 }

// FeatureLen returns 64.
func (s *Gift64Scenario) FeatureLen() int { return 64 }

func uint64Bits(v uint64) []float64 {
	out := make([]float64, 64)
	for i := range out {
		out[i] = float64(v >> i & 1)
	}
	return out
}

// Sample returns a real output difference for class 1 and a random
// difference for class 0.
func (s *Gift64Scenario) Sample(r *prng.Rand, class int) []float64 {
	if class == 0 {
		return s.RandomSample(r)
	}
	c := gift.NewCipher64([8]uint16{
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
	})
	p := r.Uint64()
	return uint64Bits(c.EncryptRounds(p, s.Rounds) ^ c.EncryptRounds(p^s.Delta, s.Rounds))
}

// RandomSample returns a uniform 64-bit difference.
func (s *Gift64Scenario) RandomSample(r *prng.Rand) []float64 { return uint64Bits(r.Uint64()) }

// RandomBatch is the packed form of RandomSample: uint64Bits of
// one generator output is the packed form of the eight bytes Fill
// would lay out from it.
func (s *Gift64Scenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}

// SampleBatch is the packed form of Sample: same draws, same bits,
// no allocation. The 64 feature bits of uint64Bits are exactly the
// packed-row layout, so the state difference is the row word; class 1
// re-keys one stack cipher via the in-place Expand, and class 0 is
// RandomBatch.
func (s *Gift64Scenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		s.RandomBatch(r, dst)
		return
	}
	var c gift.Cipher64
	c.Expand([8]uint16{
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
	})
	p := r.Uint64()
	dst[0] = c.EncryptRounds(p, s.Rounds) ^ c.EncryptRounds(p^s.Delta, s.Rounds)
}

// NewSalsaScenario builds a t = 2 scenario over the round-reduced
// Salsa20 core: the two input differences flip the least significant
// bit of byte 4 and byte 12 (mirroring the paper's GIMLI byte
// positions, here landing in different state words), and the feature
// vector is the 512-bit output difference of the feedforward core.
func NewSalsaScenario(rounds int) (*FuncScenario, error) {
	if rounds < 0 || rounds > salsa.FullRounds || rounds%2 != 0 {
		return nil, fmt.Errorf("core: Salsa round count must be even and ≤ %d, got %d", salsa.FullRounds, rounds)
	}
	d0 := make([]byte, salsa.StateBytes)
	d1 := make([]byte, salsa.StateBytes)
	d0[4] = 0x01
	d1[12] = 0x01
	f := func(p []byte) []byte { return salsa.Core(p, rounds) }
	return NewFuncScenario(fmt.Sprintf("salsa-core-%dr-t2", rounds), f,
		salsa.StateBytes, salsa.StateBytes, [][]byte{d0, d1})
}

// TriviumScenario classifies keystream-prefix differences of
// reduced-initialization Trivium under two chosen IV differences
// (fresh random key and IV per sample) — the natural transplant of the
// paper's nonce-respecting GIMLI-CIPHER experiment onto a stream
// cipher where "rounds" are warm-up clocks.
type TriviumScenario struct {
	InitClocks int
	PrefixLen  int
	Deltas     [][]byte
}

// NewTriviumScenario builds the scenario with IV differences at byte 1
// and byte 9 and a 16-byte keystream prefix.
func NewTriviumScenario(initClocks int) (*TriviumScenario, error) {
	if initClocks < 0 || initClocks > trivium.FullInitClocks {
		return nil, fmt.Errorf("core: Trivium init clocks must be in [0, %d], got %d", trivium.FullInitClocks, initClocks)
	}
	d0 := make([]byte, trivium.IVBytes)
	d1 := make([]byte, trivium.IVBytes)
	d0[1] = 0x01
	d1[9] = 0x01
	return &TriviumScenario{InitClocks: initClocks, PrefixLen: 16, Deltas: [][]byte{d0, d1}}, nil
}

// Name identifies the scenario.
func (s *TriviumScenario) Name() string {
	return fmt.Sprintf("trivium-%dclk-t%d", s.InitClocks, len(s.Deltas))
}

// Classes returns t.
func (s *TriviumScenario) Classes() int { return len(s.Deltas) }

// FeatureLen returns the keystream prefix length in bits.
func (s *TriviumScenario) FeatureLen() int { return s.PrefixLen * 8 }

// diff returns the keystream-prefix difference bytes for an IV pair
// differing by δ_class under a fresh random key.
func (s *TriviumScenario) diff(r *prng.Rand, class int) []byte {
	key := r.Bytes(trivium.KeyBytes)
	iv := r.Bytes(trivium.IVBytes)
	a, err := trivium.Prefix(key, iv, s.InitClocks, s.PrefixLen)
	if err != nil {
		panic(fmt.Sprintf("core: trivium sample: %v", err))
	}
	bits.XOR(iv, iv, s.Deltas[class])
	b, err := trivium.Prefix(key, iv, s.InitClocks, s.PrefixLen)
	if err != nil {
		panic(fmt.Sprintf("core: trivium sample: %v", err))
	}
	return bits.XORBytes(a, b)
}

// Sample returns the keystream-prefix difference for an IV pair
// differing by δ_class under a fresh random key.
func (s *TriviumScenario) Sample(r *prng.Rand, class int) []float64 {
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), s.diff(r, class))
}

// SampleBatch is the packed form of Sample.
func (s *TriviumScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	bits.PackBytes(dst, s.diff(r, class))
}

// RandomSample returns a uniform keystream-prefix difference.
func (s *TriviumScenario) RandomSample(r *prng.Rand) []float64 {
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), r.Bytes(s.PrefixLen))
}

// RandomBatch is the packed form of RandomSample.
func (s *TriviumScenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}
