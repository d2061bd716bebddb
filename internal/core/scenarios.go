package core

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/duplex"
	"repro/internal/gimli"
	"repro/internal/prng"
	"repro/internal/speck"
	"repro/internal/sponge"
)

// GimliHashScenario is the Section 4 GIMLI-HASH experiment: a
// single-block message is hashed by a round-reduced sponge and the
// 128-bit difference of the first digest half is classified by which
// message difference was injected. The paper's two differences flip
// the least significant bit of byte 4 and byte 12; arbitrary difference
// sets are supported.
type GimliHashScenario struct {
	Rounds int
	MsgLen int      // single-block message length, ≤ 15 bytes
	Deltas [][]byte // t message differences, each MsgLen bytes
}

// NewGimliHashScenario returns the paper's configuration for the given
// round count: a 15-byte message with differences 0x01 at byte 4 and at
// byte 12.
func NewGimliHashScenario(rounds int) (*GimliHashScenario, error) {
	d0 := make([]byte, 15)
	d1 := make([]byte, 15)
	d0[4] = 0x01
	d1[12] = 0x01
	return CustomGimliHashScenario(rounds, 15, [][]byte{d0, d1})
}

// CustomGimliHashScenario validates and builds an arbitrary-difference
// hash scenario.
func CustomGimliHashScenario(rounds, msgLen int, deltas [][]byte) (*GimliHashScenario, error) {
	if rounds < 1 || rounds > gimli.FullRounds {
		return nil, fmt.Errorf("core: invalid round count %d", rounds)
	}
	if msgLen < 0 || msgLen >= sponge.Rate {
		return nil, fmt.Errorf("core: single-block message length must be in [0, 15], got %d", msgLen)
	}
	if len(deltas) < 2 {
		return nil, fmt.Errorf("core: need t ≥ 2 differences, got %d", len(deltas))
	}
	for i, d := range deltas {
		if len(d) != msgLen {
			return nil, fmt.Errorf("core: difference %d has %d bytes, want %d", i, len(d), msgLen)
		}
		if bits.PopCount(d) == 0 {
			return nil, fmt.Errorf("core: difference %d is zero", i)
		}
	}
	return &GimliHashScenario{Rounds: rounds, MsgLen: msgLen, Deltas: deltas}, nil
}

// Name identifies the scenario.
func (s *GimliHashScenario) Name() string {
	return fmt.Sprintf("gimli-hash-%dr-t%d", s.Rounds, len(s.Deltas))
}

// Classes returns t.
func (s *GimliHashScenario) Classes() int { return len(s.Deltas) }

// FeatureLen returns 128: the bits of the first digest half.
func (s *GimliHashScenario) FeatureLen() int { return sponge.Rate * 8 }

// Sample hashes a random message pair differing by δ_class and returns
// the digest difference bits.
func (s *GimliHashScenario) Sample(r *prng.Rand, class int) []float64 {
	msg := r.Bytes(s.MsgLen)
	h1 := sponge.RateAfterAbsorb(msg, s.Rounds)
	bits.XOR(msg, msg, s.Deltas[class])
	h2 := sponge.RateAfterAbsorb(msg, s.Rounds)
	diff := bits.XORBytes(h1[:], h2[:])
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), diff)
}

// RandomSample returns a uniformly random 128-bit difference.
func (s *GimliHashScenario) RandomSample(r *prng.Rand) []float64 {
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), r.Bytes(sponge.Rate))
}

// statePair builds the two pre-permutation sponge states of one sample
// (message and message ⊕ δ_class, both padded), drawing exactly the
// bytes Sample draws.
func (s *GimliHashScenario) statePair(r *prng.Rand, class int, a, b *gimli.State) {
	var buf [sponge.Rate]byte
	msg := buf[:s.MsgLen]
	r.Fill(msg)
	*a = gimli.State{}
	a.XORBytes(msg)
	a.XORByte(s.MsgLen, 0x01)
	a.XORByte(gimli.StateBytes-1, 0x01)
	bits.XOR(msg, msg, s.Deltas[class])
	*b = gimli.State{}
	b.XORBytes(msg)
	b.XORByte(s.MsgLen, 0x01)
	b.XORByte(gimli.StateBytes-1, 0x01)
}

// packRateDiff packs the 128-bit rate difference of two permuted states
// straight from the state words: the rate serializes little-endian, and
// the packed-row layout is little-endian bit order, so rate word w of
// the XOR lands in the half-word w of dst unchanged.
func packRateDiff(a, b *gimli.State, dst []uint64) {
	dst[0] = uint64(a[0]^b[0]) | uint64(a[1]^b[1])<<32
	dst[1] = uint64(a[2]^b[2]) | uint64(a[3]^b[3])<<32
}

// randomBatch is every scenario's RandomBatch: the packed form of
// bits.ToFloats(r.Bytes(feat/8)), the uniform difference each
// RandomSample returns. Fill lays each generator output out
// little-endian and the packed layout is little-endian bit order, so
// output w is packed word w unchanged; a trailing partial word keeps
// only the bytes Fill would use. feat must be a multiple of 8.
func randomBatch(r *prng.Rand, dst []uint64, feat int) {
	n := feat / 8
	w := 0
	for ; 8*w+8 <= n; w++ {
		dst[w] = r.Uint64()
	}
	if rem := n - 8*w; rem > 0 {
		dst[w] = r.Uint64() & (1<<(8*uint(rem)) - 1)
	}
}

// RandomBatch is the packed form of RandomSample.
func (s *GimliHashScenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}

// SampleBatch is the packed form of Sample: same draws, same bits,
// no allocation.
func (s *GimliHashScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	var a, b gimli.State
	s.statePair(r, class, &a, &b)
	gimli.PermuteRounds(&a, s.Rounds)
	gimli.PermuteRounds(&b, s.Rounds)
	packRateDiff(&a, &b, dst)
}

// SampleQuad generates four samples — eight independent states — in
// one ×8-interleaved permutation pass.
func (s *GimliHashScenario) SampleQuad(r *[4]prng.Rand, class [4]int, dst [4][]uint64) {
	var st [8]gimli.State
	for k := 0; k < 4; k++ {
		s.statePair(&r[k], class[k], &st[2*k], &st[2*k+1])
	}
	ptrs := [8]*gimli.State{&st[0], &st[1], &st[2], &st[3], &st[4], &st[5], &st[6], &st[7]}
	gimli.PermuteRounds8(&ptrs, s.Rounds)
	for k := 0; k < 4; k++ {
		packRateDiff(&st[2*k], &st[2*k+1], dst[k])
	}
}

// GimliCipherScenario is the Section 4 GIMLI-CIPHER experiment in the
// nonce-respecting setting: per sample, a fresh random 256-bit key and
// a random nonce pair differing by δ_class are run through the
// round-reduced initialization, and the difference of the first
// ciphertext block c0 (zero message, one empty associated-data block)
// is classified.
type GimliCipherScenario struct {
	Rounds int
	Deltas [][]byte // t nonce differences, each 16 bytes
}

// NewGimliCipherScenario returns the paper's configuration: nonce
// differences 0x01 at byte 4 and at byte 12.
func NewGimliCipherScenario(rounds int) (*GimliCipherScenario, error) {
	d0 := make([]byte, duplex.NonceSize)
	d1 := make([]byte, duplex.NonceSize)
	d0[4] = 0x01
	d1[12] = 0x01
	return CustomGimliCipherScenario(rounds, [][]byte{d0, d1})
}

// CustomGimliCipherScenario validates and builds an
// arbitrary-difference cipher scenario.
func CustomGimliCipherScenario(rounds int, deltas [][]byte) (*GimliCipherScenario, error) {
	if rounds < 1 || rounds > gimli.FullRounds {
		return nil, fmt.Errorf("core: invalid round count %d", rounds)
	}
	if len(deltas) < 2 {
		return nil, fmt.Errorf("core: need t ≥ 2 differences, got %d", len(deltas))
	}
	for i, d := range deltas {
		if len(d) != duplex.NonceSize {
			return nil, fmt.Errorf("core: nonce difference %d has %d bytes, want %d", i, len(d), duplex.NonceSize)
		}
		if bits.PopCount(d) == 0 {
			return nil, fmt.Errorf("core: difference %d is zero", i)
		}
	}
	return &GimliCipherScenario{Rounds: rounds, Deltas: deltas}, nil
}

// Name identifies the scenario.
func (s *GimliCipherScenario) Name() string {
	return fmt.Sprintf("gimli-cipher-%dr-t%d", s.Rounds, len(s.Deltas))
}

// Classes returns t.
func (s *GimliCipherScenario) Classes() int { return len(s.Deltas) }

// FeatureLen returns 128: the bits of the first ciphertext block.
func (s *GimliCipherScenario) FeatureLen() int { return duplex.Rate * 8 }

// Sample returns the c0 difference bits for a random key and nonce
// pair differing by δ_class.
func (s *GimliCipherScenario) Sample(r *prng.Rand, class int) []float64 {
	key := r.Bytes(duplex.KeySize)
	nonce := r.Bytes(duplex.NonceSize)
	c1 := duplex.InitRate(key, nonce, s.Rounds)
	bits.XOR(nonce, nonce, s.Deltas[class])
	c2 := duplex.InitRate(key, nonce, s.Rounds)
	diff := bits.XORBytes(c1[:], c2[:])
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), diff)
}

// RandomSample returns a uniformly random 128-bit difference.
func (s *GimliCipherScenario) RandomSample(r *prng.Rand) []float64 {
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), r.Bytes(duplex.Rate))
}

// statePair builds the two pre-permutation duplex states of one sample
// (nonce ‖ key and (nonce ⊕ δ_class) ‖ key), drawing key then nonce
// exactly as Sample does. The post-permutation AD padding of InitRate
// is a constant, so it cancels in the rate difference and is skipped.
func (s *GimliCipherScenario) statePair(r *prng.Rand, class int, a, b *gimli.State) {
	var buf [gimli.StateBytes]byte
	r.Fill(buf[duplex.NonceSize:]) // key, drawn first in Sample
	r.Fill(buf[:duplex.NonceSize]) // nonce
	a.SetBytes(buf[:])
	*b = *a
	b.XORBytes(s.Deltas[class]) // 16 bytes: flips only the nonce part
}

// RandomBatch is the packed form of RandomSample.
func (s *GimliCipherScenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}

// SampleBatch is the packed form of Sample: same draws, same bits,
// no allocation.
func (s *GimliCipherScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	var a, b gimli.State
	s.statePair(r, class, &a, &b)
	gimli.PermuteRounds(&a, s.Rounds)
	gimli.PermuteRounds(&b, s.Rounds)
	packRateDiff(&a, &b, dst)
}

// SampleQuad generates four samples — eight independent states — in
// one ×8-interleaved permutation pass.
func (s *GimliCipherScenario) SampleQuad(r *[4]prng.Rand, class [4]int, dst [4][]uint64) {
	var st [8]gimli.State
	for k := 0; k < 4; k++ {
		s.statePair(&r[k], class[k], &st[2*k], &st[2*k+1])
	}
	ptrs := [8]*gimli.State{&st[0], &st[1], &st[2], &st[3], &st[4], &st[5], &st[6], &st[7]}
	gimli.PermuteRounds8(&ptrs, s.Rounds)
	for k := 0; k < 4; k++ {
		packRateDiff(&st[2*k], &st[2*k+1], dst[k])
	}
}

// SpeckScenario is the Gohr-style baseline of Section 2.3 transplanted
// into this framework: class 1 samples are true round-reduced
// SPECK-32/64 output differences under the input difference Delta with
// a fresh random key per sample; class 0 samples are uniformly random
// 32-bit differences. (Gohr's real/random labelling is exactly the
// t = 2 special case of Algorithm 2 in which δ1 is "replace the pair
// with random data".)
type SpeckScenario struct {
	Rounds int
	Delta  speck.Block
}

// NewSpeckScenario builds the baseline for the given rounds with
// Gohr's input difference (0x0040, 0x0000).
func NewSpeckScenario(rounds int) (*SpeckScenario, error) {
	if rounds < 1 || rounds > speck.Rounds {
		return nil, fmt.Errorf("core: invalid SPECK round count %d", rounds)
	}
	return &SpeckScenario{Rounds: rounds, Delta: speck.GohrDelta}, nil
}

// Name identifies the scenario.
func (s *SpeckScenario) Name() string { return fmt.Sprintf("speck32-%dr-real-vs-random", s.Rounds) }

// Classes returns 2 (real, random).
func (s *SpeckScenario) Classes() int { return 2 }

// FeatureLen returns 32: one block difference.
func (s *SpeckScenario) FeatureLen() int { return 32 }

// Sample returns a real output difference for class 1 and a random
// 32-bit difference for class 0.
func (s *SpeckScenario) Sample(r *prng.Rand, class int) []float64 {
	if class == 0 {
		return s.RandomSample(r)
	}
	c := speck.New([4]uint16{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
	p := speck.Block{X: r.Uint16(), Y: r.Uint16()}
	d := c.EncryptRounds(p, s.Rounds).XOR(c.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	return bits.ToFloats(make([]float64, 0, 32), d.Bytes())
}

// RandomSample returns a uniformly random 32-bit difference.
func (s *SpeckScenario) RandomSample(r *prng.Rand) []float64 {
	return bits.ToFloats(make([]float64, 0, 32), r.Bytes(4))
}

// RandomBatch is the packed form of RandomSample.
func (s *SpeckScenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}

// SampleBatch is the packed form of Sample: same draws, same bits, no
// allocation. Class 1 re-keys a stack Cipher and encrypts the plaintext
// pair; class 0 is RandomBatch.
func (s *SpeckScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		s.RandomBatch(r, dst)
		return
	}
	var c speck.Cipher
	c.Expand([4]uint16{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
	p := speck.Block{X: r.Uint16(), Y: r.Uint16()}
	d := c.EncryptRounds(p, s.Rounds).XOR(c.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	dst[0] = uint64(d.X) | uint64(d.Y)<<16
}

// Compile-time checks that the GIMLI quad tier stays wired up.
var (
	_ QuadScenario = (*GimliHashScenario)(nil)
	_ QuadScenario = (*GimliCipherScenario)(nil)
)

// FuncScenario adapts an arbitrary fixed-input-length function to a
// Scenario: differences are injected into the input of f and the
// output difference is the feature vector. It is the extension hook
// for "any symmetric key primitive" promised by the paper.
type FuncScenario struct {
	Label   string
	F       func([]byte) []byte
	InLen   int
	OutLen  int
	DeltaIn [][]byte
}

// NewFuncScenario validates and builds a custom scenario.
func NewFuncScenario(label string, f func([]byte) []byte, inLen, outLen int, deltas [][]byte) (*FuncScenario, error) {
	if f == nil {
		return nil, fmt.Errorf("core: nil function")
	}
	if inLen <= 0 || outLen <= 0 {
		return nil, fmt.Errorf("core: invalid lengths in=%d out=%d", inLen, outLen)
	}
	if len(deltas) < 2 {
		return nil, fmt.Errorf("core: need t ≥ 2 differences, got %d", len(deltas))
	}
	for i, d := range deltas {
		if len(d) != inLen {
			return nil, fmt.Errorf("core: difference %d has %d bytes, want %d", i, len(d), inLen)
		}
		if bits.PopCount(d) == 0 {
			return nil, fmt.Errorf("core: difference %d is zero", i)
		}
	}
	return &FuncScenario{Label: label, F: f, InLen: inLen, OutLen: outLen, DeltaIn: deltas}, nil
}

// Name identifies the scenario.
func (s *FuncScenario) Name() string { return s.Label }

// Classes returns t.
func (s *FuncScenario) Classes() int { return len(s.DeltaIn) }

// FeatureLen returns the output length in bits.
func (s *FuncScenario) FeatureLen() int { return s.OutLen * 8 }

// diff evaluates f on a random input pair differing by δ_class and
// returns the output difference bytes.
func (s *FuncScenario) diff(r *prng.Rand, class int) []byte {
	p := r.Bytes(s.InLen)
	y1 := s.F(p)
	bits.XOR(p, p, s.DeltaIn[class])
	y2 := s.F(p)
	if len(y1) != s.OutLen || len(y2) != s.OutLen {
		panic(fmt.Sprintf("core: scenario %q function returned %d/%d bytes, want %d", s.Label, len(y1), len(y2), s.OutLen))
	}
	return bits.XORBytes(y1, y2)
}

// Sample returns the output difference of f on a random input pair
// differing by δ_class.
func (s *FuncScenario) Sample(r *prng.Rand, class int) []float64 {
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), s.diff(r, class))
}

// SampleBatch is the packed form of Sample.
func (s *FuncScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	bits.PackBytes(dst, s.diff(r, class))
}

// RandomSample returns a uniformly random output difference.
func (s *FuncScenario) RandomSample(r *prng.Rand) []float64 {
	return bits.ToFloats(make([]float64, 0, s.FeatureLen()), r.Bytes(s.OutLen))
}

// RandomBatch is the packed form of RandomSample.
func (s *FuncScenario) RandomBatch(r *prng.Rand, dst []uint64) {
	randomBatch(r, dst, s.FeatureLen())
}
