package core

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/chaskey"
	"repro/internal/prng"
	"repro/internal/simeck"
	"repro/internal/simon"
)

// This file holds the new-cipher sweep scenarios: SIMON-32/64 and
// SIMECK-32/64 (each with an optional related-key difference ∇ in the
// style of Lu et al.) and the Chaskey permutation (the Zhang & Wang
// direction). All are Gohr-style real-vs-random scenarios like
// SpeckScenario: class 1 is a true round-reduced output difference
// under a fresh random key per sample, class 0 a uniformly random
// difference of the same width.

// SimonScenario distinguishes round-reduced SIMON-32/64 output
// differences from random, optionally under a related-key difference:
// when KeyD is nonzero, the second encryption of each class-1 sample
// runs under K ⊕ KeyD, which with the canonical (δ, ∇) choice cancels
// the state difference for the first four rounds and lets
// distinguishers reach several rounds beyond the single-key setting.
type SimonScenario struct {
	Rounds int
	Delta  simon.Block // plaintext difference δ
	KeyD   simon.Key   // related-key difference ∇; zero = single-key
}

// NewSimonScenario builds the single-key baseline for the given rounds
// with the standard input difference (0x0000, 0x0040).
func NewSimonScenario(rounds int) (*SimonScenario, error) {
	return CustomSimonScenario(rounds, simon.NDDelta, simon.Key{})
}

// NewSimonRKScenario builds the related-key variant for the given
// rounds with the Lu et al.-style pair δ = (0x0000, 0x0040),
// ∇ = (0, 0, 0, 0x0040): ∇ cancels δ in round 1 and the key schedule
// re-injects it at round 5.
func NewSimonRKScenario(rounds int) (*SimonScenario, error) {
	return CustomSimonScenario(rounds, simon.NDDelta, simon.LuKeyDelta)
}

// CustomSimonScenario validates and builds an arbitrary-difference
// SIMON scenario. δ = 0 with ∇ ≠ 0 is the pure related-key
// construction and is allowed; both zero would make the two encryptions
// identical and is rejected.
func CustomSimonScenario(rounds int, delta simon.Block, keyDelta simon.Key) (*SimonScenario, error) {
	if rounds < 1 || rounds > simon.Rounds {
		return nil, fmt.Errorf("core: invalid SIMON round count %d", rounds)
	}
	if delta == (simon.Block{}) && keyDelta.IsZero() {
		return nil, fmt.Errorf("core: SIMON scenario needs a nonzero plaintext or key difference")
	}
	return &SimonScenario{Rounds: rounds, Delta: delta, KeyD: keyDelta}, nil
}

// Name identifies the scenario; related-key instances carry an -rk tag.
func (s *SimonScenario) Name() string {
	if s.KeyD.IsZero() {
		return fmt.Sprintf("simon32-%dr-real-vs-random", s.Rounds)
	}
	return fmt.Sprintf("simon32-%dr-rk-real-vs-random", s.Rounds)
}

// Classes returns 2 (real, random).
func (s *SimonScenario) Classes() int { return 2 }

// FeatureLen returns 32: one block difference.
func (s *SimonScenario) FeatureLen() int { return 32 }

// KeyDelta returns ∇ in the simon.NewFromBytes big-endian word layout.
func (s *SimonScenario) KeyDelta() []byte {
	b := make([]byte, 2*simon.KeyWords)
	for i, w := range s.KeyD {
		b[2*i], b[2*i+1] = byte(w>>8), byte(w)
	}
	return b
}

// DrawWords declares the generator layout: class 0 draws one word (the
// 32-bit random difference), class 1 draws six (four 16-bit key words,
// then the two 16-bit plaintext words; each 16-bit draw consumes one
// 64-bit output).
func (s *SimonScenario) DrawWords(class int) int {
	if class == 0 {
		return 1
	}
	return 6
}

// Sample returns a real output difference for class 1 and a random
// 32-bit difference for class 0.
func (s *SimonScenario) Sample(r *prng.Rand, class int) []float64 {
	if class == 0 {
		return s.RandomSample(r)
	}
	k := simon.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
	p := simon.Block{X: r.Uint16(), Y: r.Uint16()}
	ca := simon.New(k)
	cb := ca
	if !s.KeyD.IsZero() {
		cb = simon.New(k.XOR(s.KeyD))
	}
	d := ca.EncryptRounds(p, s.Rounds).XOR(cb.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	return bits.ToFloats(make([]float64, 0, 32), d.Bytes())
}

// RandomSample returns a uniformly random 32-bit difference.
func (s *SimonScenario) RandomSample(r *prng.Rand) []float64 {
	return bits.ToFloats(make([]float64, 0, 32), r.Bytes(4))
}

// RandomBatch is the packed form of RandomSample.
func (s *SimonScenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}

// SampleBatch is the packed form of Sample: same draws, same bits,
// no allocation. Class 1 re-keys one or two stack Ciphers (the
// related-key encryption runs under K ⊕ ∇) and encrypts the plaintext
// pair; class 0 is RandomBatch.
func (s *SimonScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		s.RandomBatch(r, dst)
		return
	}
	k := simon.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
	p := simon.Block{X: r.Uint16(), Y: r.Uint16()}
	var ca, cb simon.Cipher
	ca.Expand(k)
	second := &ca
	if !s.KeyD.IsZero() {
		cb.Expand(k.XOR(s.KeyD))
		second = &cb
	}
	d := ca.EncryptRounds(p, s.Rounds).XOR(second.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	dst[0] = uint64(d.X) | uint64(d.Y)<<16
}

// SimeckScenario distinguishes round-reduced SIMECK-32/64 output
// differences from random, optionally under a related-key difference;
// it is structured exactly like SimonScenario.
type SimeckScenario struct {
	Rounds int
	Delta  simeck.Block // plaintext difference δ
	KeyD   simeck.Key   // related-key difference ∇; zero = single-key
}

// NewSimeckScenario builds the single-key baseline for the given rounds
// with the standard input difference (0x0000, 0x0002).
func NewSimeckScenario(rounds int) (*SimeckScenario, error) {
	return CustomSimeckScenario(rounds, simeck.NDDelta, simeck.Key{})
}

// NewSimeckRKScenario builds the related-key variant with the
// Lu et al.-style pair δ = (0x0000, 0x0002), ∇ = (0, 0, 0, 0x0002).
func NewSimeckRKScenario(rounds int) (*SimeckScenario, error) {
	return CustomSimeckScenario(rounds, simeck.NDDelta, simeck.LuKeyDelta)
}

// CustomSimeckScenario validates and builds an arbitrary-difference
// SIMECK scenario under the same rules as CustomSimonScenario.
func CustomSimeckScenario(rounds int, delta simeck.Block, keyDelta simeck.Key) (*SimeckScenario, error) {
	if rounds < 1 || rounds > simeck.Rounds {
		return nil, fmt.Errorf("core: invalid SIMECK round count %d", rounds)
	}
	if delta == (simeck.Block{}) && keyDelta.IsZero() {
		return nil, fmt.Errorf("core: SIMECK scenario needs a nonzero plaintext or key difference")
	}
	return &SimeckScenario{Rounds: rounds, Delta: delta, KeyD: keyDelta}, nil
}

// Name identifies the scenario; related-key instances carry an -rk tag.
func (s *SimeckScenario) Name() string {
	if s.KeyD.IsZero() {
		return fmt.Sprintf("simeck32-%dr-real-vs-random", s.Rounds)
	}
	return fmt.Sprintf("simeck32-%dr-rk-real-vs-random", s.Rounds)
}

// Classes returns 2 (real, random).
func (s *SimeckScenario) Classes() int { return 2 }

// FeatureLen returns 32: one block difference.
func (s *SimeckScenario) FeatureLen() int { return 32 }

// KeyDelta returns ∇ in the simeck.NewFromBytes big-endian word layout.
func (s *SimeckScenario) KeyDelta() []byte {
	b := make([]byte, 2*simeck.KeyWords)
	for i, w := range s.KeyD {
		b[2*i], b[2*i+1] = byte(w>>8), byte(w)
	}
	return b
}

// DrawWords declares the generator layout: one word for class 0, six
// for class 1 (four key words, two plaintext words).
func (s *SimeckScenario) DrawWords(class int) int {
	if class == 0 {
		return 1
	}
	return 6
}

// Sample returns a real output difference for class 1 and a random
// 32-bit difference for class 0.
func (s *SimeckScenario) Sample(r *prng.Rand, class int) []float64 {
	if class == 0 {
		return s.RandomSample(r)
	}
	k := simeck.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
	p := simeck.Block{X: r.Uint16(), Y: r.Uint16()}
	ca := simeck.New(k)
	cb := ca
	if !s.KeyD.IsZero() {
		cb = simeck.New(k.XOR(s.KeyD))
	}
	d := ca.EncryptRounds(p, s.Rounds).XOR(cb.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	return bits.ToFloats(make([]float64, 0, 32), d.Bytes())
}

// RandomSample returns a uniformly random 32-bit difference.
func (s *SimeckScenario) RandomSample(r *prng.Rand) []float64 {
	return bits.ToFloats(make([]float64, 0, 32), r.Bytes(4))
}

// RandomBatch is the packed form of RandomSample.
func (s *SimeckScenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}

// SampleBatch is the packed form of Sample: same draws, same bits,
// no allocation; class 0 is RandomBatch.
func (s *SimeckScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		s.RandomBatch(r, dst)
		return
	}
	k := simeck.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
	p := simeck.Block{X: r.Uint16(), Y: r.Uint16()}
	var ca, cb simeck.Cipher
	ca.Expand(k)
	second := &ca
	if !s.KeyD.IsZero() {
		cb.Expand(k.XOR(s.KeyD))
		second = &cb
	}
	d := ca.EncryptRounds(p, s.Rounds).XOR(second.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	dst[0] = uint64(d.X) | uint64(d.Y)<<16
}

// ChaskeyScenario distinguishes the round-reduced Chaskey permutation
// from random, the same treatment the gimli scenarios give their
// permutation: class 1 permutes a random state pair differing by Delta
// and classifies the 128-bit output difference.
type ChaskeyScenario struct {
	Rounds int
	Delta  chaskey.State
}

// NewChaskeyScenario builds the scenario for the given rounds with the
// standard single-bit input difference chaskey.NDDelta.
func NewChaskeyScenario(rounds int) (*ChaskeyScenario, error) {
	return CustomChaskeyScenario(rounds, chaskey.NDDelta)
}

// CustomChaskeyScenario validates and builds an arbitrary-difference
// Chaskey scenario.
func CustomChaskeyScenario(rounds int, delta chaskey.State) (*ChaskeyScenario, error) {
	if rounds < 1 || rounds > chaskey.LTSRounds {
		return nil, fmt.Errorf("core: invalid Chaskey round count %d", rounds)
	}
	if delta == (chaskey.State{}) {
		return nil, fmt.Errorf("core: Chaskey difference is zero")
	}
	return &ChaskeyScenario{Rounds: rounds, Delta: delta}, nil
}

// Name identifies the scenario.
func (s *ChaskeyScenario) Name() string {
	return fmt.Sprintf("chaskey-%dr-real-vs-random", s.Rounds)
}

// Classes returns 2 (real, random).
func (s *ChaskeyScenario) Classes() int { return 2 }

// FeatureLen returns 128: one state difference.
func (s *ChaskeyScenario) FeatureLen() int { return 128 }

// Sample returns a real permutation output difference for class 1 and
// a random 128-bit difference for class 0.
func (s *ChaskeyScenario) Sample(r *prng.Rand, class int) []float64 {
	if class == 0 {
		return s.RandomSample(r)
	}
	v := chaskey.State{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
	d := chaskey.Permute(v, s.Rounds).XOR(chaskey.Permute(v.XOR(s.Delta), s.Rounds))
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), d.Bytes())
}

// RandomSample returns a uniformly random 128-bit difference.
func (s *ChaskeyScenario) RandomSample(r *prng.Rand) []float64 {
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), r.Bytes(chaskey.StateBytes))
}

// RandomBatch is the packed form of RandomSample.
func (s *ChaskeyScenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}

// SampleBatch is the packed form of Sample: same draws, same bits,
// no allocation. The state serializes little-endian word by word, and
// the packed-row layout is little-endian bit order, so state word w of
// the XOR lands in half-word w of dst unchanged (the packRateDiff
// argument); class 0 is RandomBatch.
func (s *ChaskeyScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		s.RandomBatch(r, dst)
		return
	}
	v := chaskey.State{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
	a, b := chaskey.Permute(v, s.Rounds), chaskey.Permute(v.XOR(s.Delta), s.Rounds)
	dst[0] = uint64(a[0]^b[0]) | uint64(a[1]^b[1])<<32
	dst[1] = uint64(a[2]^b[2]) | uint64(a[3]^b[3])<<32
}

// Compile-time checks that the sweep scenarios stay wired to the
// related-key contract.
var (
	_ RelatedKeyScenario = (*SimonScenario)(nil)
	_ RelatedKeyScenario = (*SimeckScenario)(nil)
)
