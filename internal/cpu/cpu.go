// Package cpu holds runtime CPU feature detection for the SIMD
// kernels. It is a leaf package — it imports nothing inside the
// module — so the accelerated matrix kernels in internal/nn can gate
// their vector paths on it without import cycles.
package cpu
