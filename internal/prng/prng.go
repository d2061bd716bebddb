// Package prng provides the deterministic pseudo-random number
// generation used throughout the repository.
//
// Every experiment in the paper reproduction is seeded explicitly, so
// results are bit-for-bit reproducible across runs and machines. The
// generator is xoshiro256** (Blackman–Vigna), seeded through SplitMix64,
// which is the conventional way to expand a 64-bit seed into the
// 256-bit xoshiro state without correlations.
//
// The package deliberately does not use math/rand: we need stable output
// across Go releases, cheap independent streams (Split), and a generator
// whose behaviour is pinned by this repository rather than by the
// standard library.
package prng

import (
	"math"
	mathbits "math/bits"
)

// Rand is a deterministic random number generator. It is not safe for
// concurrent use; use Split to derive independent generators for
// concurrent workers.
type Rand struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl64(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl64(s[3], 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Uint16 returns the next 16 uniformly distributed bits.
func (r *Rand) Uint16() uint16 { return uint16(r.Uint64() >> 48) }

// Byte returns one uniformly distributed byte.
func (r *Rand) Byte() byte { return byte(r.Uint64() >> 56) }

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation, with the
	// rejection loop that removes modulo bias entirely.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mathbits.Mul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mathbits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box–Muller transform (polar form is
// avoided to keep the consumption of generator output fixed).
func (r *Rand) NormFloat64() float64 {
	// Draw u1 in (0,1] so the log is finite.
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Fill fills p with uniformly distributed bytes.
func (r *Rand) Fill(p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		v := r.Uint64()
		p[i] = byte(v)
		p[i+1] = byte(v >> 8)
		p[i+2] = byte(v >> 16)
		p[i+3] = byte(v >> 24)
		p[i+4] = byte(v >> 32)
		p[i+5] = byte(v >> 40)
		p[i+6] = byte(v >> 48)
		p[i+7] = byte(v >> 56)
	}
	if i < len(p) {
		v := r.Uint64()
		for ; i < len(p); i++ {
			p[i] = byte(v)
			v >>= 8
		}
	}
}

// Bytes returns n fresh uniformly distributed bytes.
func (r *Rand) Bytes(n int) []byte {
	p := make([]byte, n)
	r.Fill(p)
	return p
}

// Split returns a new generator whose stream is independent of the
// receiver's future output. It consumes one output from the receiver.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// NewStream returns a generator for the stream'th substream of the
// given seed. Unlike Split, the derivation is positional: stream i of a
// seed is the same generator no matter how many other streams were
// created, in what order, or on which goroutine. This is the
// determinism primitive behind parallel data generation — shard i of a
// sharded computation draws from NewStream(base, i) and produces
// byte-identical output regardless of how shards are scheduled across
// workers.
func NewStream(seed, stream uint64) *Rand {
	r := &Rand{}
	r.SeedStream(seed, stream)
	return r
}

// SeedStream reinitializes the receiver in place to the state
// NewStream(seed, stream) would produce. It lets a worker iterate many
// substreams without allocating a generator per stream.
func (r *Rand) SeedStream(seed, stream uint64) {
	// Mix seed and stream index through two independent SplitMix64
	// chains (distinct increments via the xor constants) so that
	// neighbouring stream indices land in uncorrelated xoshiro states.
	a := seed
	b := stream ^ 0xd1b54a32d192ed03
	for i := range r.s {
		r.s[i] = splitMix64(&a) ^ rotl64(splitMix64(&b), 31)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// using the Fisher–Yates shuffle.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function, exactly like math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
