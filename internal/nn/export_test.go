package nn

// Test-only bridges to the unexported training-engine internals, for
// the external nn_test package (which can import testkit — package nn
// itself cannot, because testkit depends on internal/core).

// FitShards exposes the canonical shard count to tests.
const FitShards = fitShards

// ReduceGradTree exposes the fixed-order gradient tree reduction.
func ReduceGradTree(grads [][][]float64) {
	for pi := range grads[0] {
		reduceGradRange(grads, pi, 0, len(grads[0][pi]))
	}
}

// FitShardCount reports how many shards the last Fit call cut each
// mini-batch into: FitShards, or 1 for a network trained as one
// whole-batch shard (0 before any Fit call).
func (n *Network) FitShardCount() int {
	if n.fit == nil {
		return 0
	}
	return n.fit.shards
}
