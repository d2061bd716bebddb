package gimli

import "math/bits"

// This file provides a ×8-interleaved variant of the permutation for
// the GIMLI dataset fast path in internal/core: one differential sample
// costs two permutation calls (the input pair), so four samples are
// eight independent 384-bit states. Interleaving them in one pass
// exposes instruction-level parallelism the one-state loop cannot —
// the SP-box is a short serial dependency chain, and independent
// chains keep the ALU ports busy while each chain waits on itself.
//
// The interleaved kernel is a pure reordering of the scalar one: it
// applies exactly round(s, r) to each state, so PermuteRounds8 output
// is bit-identical to eight PermuteRounds calls (property-tested in
// interleave_test.go).

// spbox is the SP-box of SPBox with the outputs in storage order
// (new s0, new s1, new s2). Small enough to inline; RotateLeft32 is a
// compiler intrinsic.
func spbox(s0, s1, s2 uint32) (uint32, uint32, uint32) {
	x := bits.RotateLeft32(s0, 24)
	y := bits.RotateLeft32(s1, 9)
	z := s2
	return z ^ y ^ ((x & y) << 3),
		y ^ x ^ ((x | z) << 1),
		x ^ (z << 1) ^ ((y & z) << 2)
}

// Permute8 applies the full 24-round permutation to eight independent
// states in one interleaved pass.
func Permute8(s *[8]*State) { PermuteRounds8(s, FullRounds) }

// PermuteRounds8 applies the first n rounds of GIMLI to eight
// independent states, bit-identical to calling PermuteRounds(·, n) on
// each. Eight states is four differential samples per pass — the width
// the QuadScenario engine path batches by. n must be in [0, 24].
func PermuteRounds8(s *[8]*State, n int) {
	PermuteFrom8(s, FullRounds, n)
}

// PermuteFrom8 applies n rounds starting at round number start and
// counting down to eight independent states, bit-identical to eight
// PermuteFrom calls. It panics if the window is out of range.
func PermuteFrom8(s *[8]*State, start, n int) {
	if n < 0 || start > FullRounds || start-n < 0 {
		panic("gimli: round window out of range")
	}
	// Two ×4 column groups per round rather than eight fused SP-box
	// chains: four chains already saturate the ALU ports, and a fused
	// ×8 inner loop needs more live registers than amd64 has (measured
	// ~25% slower from the spills).
	for r := start; r > start-n; r-- {
		for g := 0; g < 8; g += 4 {
			sa, sb, sc, sd := s[g], s[g+1], s[g+2], s[g+3]
			for j := 0; j < 4; j++ {
				sa[j], sa[4+j], sa[8+j] = spbox(sa[j], sa[4+j], sa[8+j])
				sb[j], sb[4+j], sb[8+j] = spbox(sb[j], sb[4+j], sb[8+j])
				sc[j], sc[4+j], sc[8+j] = spbox(sc[j], sc[4+j], sc[8+j])
				sd[j], sd[4+j], sd[8+j] = spbox(sd[j], sd[4+j], sd[8+j])
			}
		}
		switch r & 3 {
		case 0:
			rc := RoundConstantBase ^ uint32(r)
			for _, st := range s {
				smallSwap(st)
				st[0] ^= rc
			}
		case 2:
			for _, st := range s {
				bigSwap(st)
			}
		}
	}
}
