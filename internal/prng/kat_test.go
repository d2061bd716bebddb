package prng

import "testing"

// Reference vectors from the Blackman–Vigna reference implementations
// (splitmix64.c / xoshiro256starstar.c, https://prng.di.unimi.it/):
// first outputs of SplitMix64 from known seeds and of xoshiro256**
// from a known state. These pin the generator contract itself, not
// just self-consistency — seed 0's first SplitMix64 output
// 0xe220a8397b1dcdaf is the widely-published check value.

var splitMix64KAT = []struct {
	seed uint64
	want []uint64
}{
	{0, []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
		0xf88bb8a8724c81ec, 0x1b39896a51a8749b, 0x53cb9f0c747ea2ea,
		0x2c829abe1f4532e1, 0xc584133ac916ab3c,
	}},
	// Seeding with the increment itself shifts the sequence by one.
	{0x9e3779b97f4a7c15, []uint64{
		0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec,
		0x1b39896a51a8749b, 0x53cb9f0c747ea2ea, 0x2c829abe1f4532e1,
		0xc584133ac916ab3c, 0x3ee5789041c98ac3,
	}},
}

func TestSplitMix64KAT(t *testing.T) {
	for _, c := range splitMix64KAT {
		s := c.seed
		for i, want := range c.want {
			if got := splitMix64(&s); got != want {
				t.Fatalf("splitMix64 seed %#x output %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}

func TestXoshiro256StarStarKAT(t *testing.T) {
	// xoshiro256** from state {1,2,3,4}; first two outputs (11520, 0)
	// are hand-derivable from the update rule, the rest transcribed
	// from the reference implementation.
	r := &Rand{s: [4]uint64{1, 2, 3, 4}}
	want := []uint64{
		0x0000000000002d00, 0x0000000000000000, 0x000000005a007080,
		0x10e0000000009d80, 0x10e0b61ce1009d80, 0x0870021ce143ad00,
		0xe071c3c2e143f089, 0x75a1690ef7a20380,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("xoshiro256** output %d = %#x, want %#x", i, got, w)
		}
	}
}
