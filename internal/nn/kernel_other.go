//go:build !amd64

package nn

// useMulAVX2 is always false off amd64; it exists so tests can toggle
// the kernel choice on every architecture.
var useMulAVX2 = false

// mulNTRangeAccel has no accelerated implementation off amd64; the
// caller falls through to the scalar kernel.
func mulNTRangeAccel(out, a, b *Matrix, lo, hi int) bool { return false }

// mulRangeAccel has no accelerated implementation off amd64.
func mulRangeAccel(out, a, b *Matrix, lo, hi int) bool { return false }

// mulTNAccRangeAccel has no accelerated implementation off amd64.
func mulTNAccRangeAccel(acc []float64, a, b *Matrix, lo, hi int) bool { return false }

// addRowPairAccel has no accelerated implementation off amd64.
func addRowPairAccel(o, b0, b1 []float64) int { return 0 }

// addRowAccel has no accelerated implementation off amd64.
func addRowAccel(o, b0 []float64) int { return 0 }
