package nn

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file implements the data-parallel deterministic training engine
// and the allocation-free batched Predictor.
//
// Determinism contract (the same one core.GenerateDataset honors):
// training results are byte-identical at any worker count. Floating-
// point addition is not associative, so the engine never lets goroutine
// scheduling pick an accumulation order. Instead every mini-batch is
// cut into fitShards canonical virtual shards — a function of the batch
// size alone — and each step runs in two phases on one worker pool:
//
//   - shards: each shard's forward/backward runs on replica layers that
//     share the network weights but own their caches, scratch buffers
//     and a per-shard gradient accumulator, using single-goroutine
//     kernels whose chains are fixed by the shard contents. Dropout
//     masks are drawn from positional substreams keyed by (step, batch
//     row), so sharding does not change mask draws. Shard loss/hit
//     tallies are merged in shard order.
//   - ranges: the parameters are cut into fixed element ranges. For
//     each range the shard gradients are merged by a fixed-order
//     pairwise tree over shard indices, and the optimizer updates the
//     same range while it is still in cache. Every element's update
//     reads only that element's gradient and state, so the range cut
//     is invisible in the result.
//
// Workers claim shards, then ranges, from an atomic cursor (work
// stealing), but every result lands in a shard- or element-indexed
// slot, so which worker computed what — and in which order work
// completes — cannot affect a single bit of the output. One worker
// replays the identical computation serially.
//
// A training set of packed {0,1} rows (FitBits) feeds a Dense first
// replica directly: its forward pass is the gather-add of
// Dense.forwardBits, and its weight gradient adds, per feature, the
// output-gradient rows of the shard's samples with that bit set, in
// ascending sample order. Both keep the float path's chains of
// roundings (see predictbits.go). Any other first layer reads the
// shard expanded with SetRowBits.
//
// A network whose train-mode forward couples rows across the batch
// (BatchNorm statistics, LSTM's unreplicated BPTT caches) cannot be
// cut into shards. It runs through the same engine as one whole-batch
// shard: one worker, whose "replica" is the network's own layer stack
// and whose shard-0 gradient slot is the network's own Grad buffers.
// Such networks ignore the worker count.

// fitShards is the canonical number of virtual shards each mini-batch
// is cut into. It bounds both the useful training parallelism and the
// gradient-accumulator memory (fitShards−1 extra gradient sets). Eight
// covers the 4-core ≥2× target with headroom while keeping the
// per-shard matrices (16 rows of a 128-sample batch) large enough to
// amortize kernel overheads.
const fitShards = 8

// fitRangeLen is the element count of one reduce-and-update range:
// eight shard gradients plus the weights and two Adam moments of 1024
// elements stay well inside L2.
const fitRangeLen = 1024

// trainCloner is implemented by layers that can replicate themselves
// for sharded training: the replica shares weight slices with the
// original but owns caches and (engine-bound) gradient buffers, and
// runs the single-goroutine kernels. cloneForTrain returns nil when a
// particular instance cannot be replicated (a Residual whose body
// contains BatchNorm).
type trainCloner interface {
	cloneForTrain() Layer
}

// cloneTrainStack replicates layers for training, or returns nil when
// any of them cannot be replicated.
func cloneTrainStack(layers []Layer) []Layer {
	out := make([]Layer, len(layers))
	for i, l := range layers {
		tc, ok := l.(trainCloner)
		if !ok {
			return nil
		}
		if out[i] = tc.cloneForTrain(); out[i] == nil {
			return nil
		}
	}
	return out
}

// cloneEvalStack replicates layers for inference.
func cloneEvalStack(layers []Layer) []Layer {
	out := make([]Layer, len(layers))
	for i, l := range layers {
		out[i] = l.cloneForEval()
	}
	return out
}

// positional is implemented by layers whose training-time randomness is
// positional (Dropout): the engine pins the (step, row-offset)
// coordinates before each shard's forward pass.
type positional interface {
	setPos(step uint64, rowOff int)
}

// trainSet is a training set as the engine reads it: float rows x, or,
// when x is nil, packed {0,1} rows of wpr words each.
type trainSet struct {
	x      *Matrix
	packed []uint64
	wpr    int
}

// paramRange is one reduce-and-update unit: elements [lo, hi) of
// parameter pi.
type paramRange struct{ pi, lo, hi int }

// The two phases of a training step.
const (
	phaseShards = iota
	phaseRanges
)

// fitState is the reusable engine for one (batch size, width, workers)
// shape. It is cached on the Network, so repeated Fit calls — and every
// step after the first — run with zero steady-state allocations.
type fitState struct {
	bs, cols, classes, workers int
	shards                     int  // fitShards, or 1 for a batch-coupled network
	dense0                     bool // replicas exist and layer 0 is Dense

	clones [][]Layer      // [worker][layer] training replicas
	params [][]*Param     // [worker][param], aligned with netParams
	pos    [][]positional // [worker] positional layers
	in     []*Matrix      // [worker] shard input scratch
	pk     [][]uint64     // [worker] shard packed-row scratch
	yb     [][]int        // [worker] shard label scratch
	probs  []*Matrix      // [worker] shard probability scratch

	netParams []*Param
	ranges    []paramRange
	grads     [][][]float64 // [shard][param]; grads[0][p] aliases netParams[p].Grad
	lossSum   []float64     // [shard] Σ −log p, merged in shard order
	hits      []int         // [shard] correct argmax count

	// Per-call inputs, set by bind.
	set   trainSet
	y     []int
	order []int
	opt   Optimizer

	// Per-step inputs, set by runStep before workers are released.
	phase int
	start int
	m     int
	step  uint64

	cursor  int64
	startCh chan struct{}
	wg      sync.WaitGroup
}

// fitStateFor returns the cached or freshly built engine for this
// network. A network that cannot be replicated gets a one-shard state
// on its own layers. Those layers are left as they are: their Dropout
// keeps its auto-incrementing step (so a second Fit call draws fresh
// masks) and the first Dense layer keeps computing its input gradient.
func (n *Network) fitStateFor(bs, cols, workers int) *fitState {
	workers = max(1, min(workers, fitShards))
	if st := n.fit; st != nil && st.bs == bs && st.cols == cols && st.workers == min(workers, st.shards) {
		return st
	}
	st := &fitState{bs: bs, cols: cols, classes: n.Classes(), workers: workers, shards: fitShards}
	st.netParams = n.Params()
	for w := 0; w < st.workers; w++ {
		layers := cloneTrainStack(n.layers)
		var pls []positional
		if layers == nil {
			layers, st.shards, st.workers = n.layers, 1, 1
		} else {
			// Layer 0's input gradient would be dL/dx of the data
			// itself, which nothing reads.
			if d, ok := layers[0].(*Dense); ok {
				d.noDX = true
				st.dense0 = true
			}
			for _, l := range layers {
				if p, ok := l.(positional); ok {
					pls = append(pls, p)
				}
			}
		}
		var ps []*Param
		for _, l := range layers {
			ps = append(ps, l.Params()...)
		}
		if len(ps) != len(st.netParams) {
			panic("nn: training replica parameter count mismatch")
		}
		st.clones = append(st.clones, layers)
		st.params = append(st.params, ps)
		st.pos = append(st.pos, pls)
		maxRows := (bs + st.shards - 1) / st.shards
		st.in = append(st.in, NewMatrix(maxRows, cols))
		st.pk = append(st.pk, nil)
		st.yb = append(st.yb, make([]int, maxRows))
		st.probs = append(st.probs, NewMatrix(maxRows, st.classes))
	}
	for pi, p := range st.netParams {
		for lo := 0; lo < len(p.W); lo += fitRangeLen {
			st.ranges = append(st.ranges, paramRange{pi, lo, min(lo+fitRangeLen, len(p.W))})
		}
	}
	st.grads = make([][][]float64, st.shards)
	st.lossSum = make([]float64, st.shards)
	st.hits = make([]int, st.shards)
	for v := range st.grads {
		gs := make([][]float64, len(st.netParams))
		for pi, p := range st.netParams {
			if v == 0 {
				// Shard 0's accumulator is the network's own gradient
				// buffer: the tree reduction folds every other shard
				// into it, so no final copy is needed before the
				// optimizer update.
				gs[pi] = p.Grad
			} else {
				gs[pi] = make([]float64, len(p.W))
			}
		}
		st.grads[v] = gs
	}
	n.fit = st
	return st
}

// bind sets the training set, labels, shuffle order and optimizer of
// one Fit call, sizing the packed-row scratch a Dense first replica
// reads.
func (st *fitState) bind(set trainSet, y, order []int, opt Optimizer) {
	st.set, st.y, st.order, st.opt = set, y, order, opt
	if set.x == nil && st.dense0 {
		need := (st.bs + st.shards - 1) / st.shards * set.wpr
		for w := range st.pk {
			if cap(st.pk[w]) < need {
				st.pk[w] = make([]uint64, need)
			}
		}
	}
}

// startPool launches the persistent worker goroutines for one Fit call.
// Steps hand out work through a channel token per worker, so the
// steady-state step loop performs no allocations.
func (st *fitState) startPool() {
	if st.workers <= 1 || st.startCh != nil {
		return
	}
	st.startCh = make(chan struct{}, st.workers)
	for w := 1; w < st.workers; w++ {
		// The channel is passed in, not read from st: a worker that
		// first runs after stopPool must see its own call's closed
		// channel, not nil or a later call's.
		go func(w int, start <-chan struct{}) {
			for range start {
				st.runWorker(w)
				st.wg.Done()
			}
		}(w, st.startCh)
	}
}

// stopPool releases the worker goroutines at the end of a Fit call and
// drops the call's references to its inputs.
func (st *fitState) stopPool() {
	if st.startCh != nil {
		close(st.startCh)
		st.startCh = nil
	}
	st.set, st.y, st.order, st.opt = trainSet{}, nil, nil, nil
}

// runStep trains on rows order[start : start+m] of the bound training
// set as training step `step` and applies the optimizer. It returns
// the summed cross-entropy (Σ −log p, not yet divided by m) and the
// correct-prediction count.
func (st *fitState) runStep(start, m int, step uint64) (lossSum float64, hits int) {
	st.start, st.m, st.step = start, m, step
	st.runPhase(phaseShards)
	for v := 0; v < st.shards; v++ {
		lossSum += st.lossSum[v]
		hits += st.hits[v]
	}
	if st.shards == 1 {
		// A whole-batch step tallies its loss as the batch mean times
		// m, the rounding TestBatchCoupledFitPinned pins in History.
		lossSum = lossSum / float64(m) * float64(m)
	}
	st.opt.beginStep(st.netParams)
	st.runPhase(phaseRanges)
	return lossSum, hits
}

// runPhase runs one phase of the step on every worker and waits for it.
func (st *fitState) runPhase(phase int) {
	st.phase = phase
	atomic.StoreInt64(&st.cursor, 0)
	if st.startCh != nil {
		st.wg.Add(st.workers - 1)
		for i := 1; i < st.workers; i++ {
			st.startCh <- struct{}{}
		}
		st.runWorker(0)
		st.wg.Wait()
	} else {
		st.runWorker(0)
	}
}

// runWorker claims the phase's shards or ranges until the cursor is
// exhausted.
func (st *fitState) runWorker(w int) {
	n := st.shards
	if st.phase == phaseRanges {
		n = len(st.ranges)
	}
	for {
		i := int(atomic.AddInt64(&st.cursor, 1)) - 1
		if i >= n {
			return
		}
		if st.phase == phaseShards {
			st.runShard(w, i)
		} else {
			r := st.ranges[i]
			reduceGradRange(st.grads, r.pi, r.lo, r.hi)
			st.opt.update(r.pi, st.netParams[r.pi], r.lo, r.hi)
		}
	}
}

// reduceGradRange merges elements [lo, hi) of parameter pi's shard
// gradient accumulators into grads[0] by a fixed-order pairwise tree:
// ((g0+g1)+(g2+g3)) + ((g4+g5)+(g6+g7)). The order is a pure function
// of shard indices, so the merged bytes are independent of which
// worker produced which accumulator and of the order in which shards
// completed. addRow adds with one exact rounding per element.
func reduceGradRange(grads [][][]float64, pi, lo, hi int) {
	for stride := 1; stride < len(grads); stride *= 2 {
		for v := 0; v+stride < len(grads); v += 2 * stride {
			addRow(grads[v][pi][lo:hi], grads[v+stride][pi][lo:hi])
		}
	}
}

// runShard runs the forward/backward pass of canonical shard v on
// worker w's replicas, accumulating into the shard's gradient slot.
func (st *fitState) runShard(w, v int) {
	gs := st.grads[v]
	ps := st.params[w]
	for pi := range ps {
		ps[pi].Grad = gs[pi]
		zeroFloats(gs[pi])
	}
	st.lossSum[v] = 0
	st.hits[v] = 0
	// Balanced contiguous shard bounds, a function of m alone.
	lo := v * st.m / st.shards
	hi := (v + 1) * st.m / st.shards
	if lo == hi {
		return
	}
	rows := hi - lo
	yb := st.yb[w]
	layers := st.clones[w]
	set := st.set
	wpr := set.wpr
	var out *Matrix
	var pk []uint64 // the shard's packed rows, for a Dense first replica
	if set.x == nil && st.dense0 {
		pk = st.pk[w][:rows*wpr]
		for k := 0; k < rows; k++ {
			src := st.order[st.start+lo+k]
			copy(pk[k*wpr:(k+1)*wpr], set.packed[src*wpr:(src+1)*wpr])
			yb[k] = st.y[src]
		}
	} else {
		bx := ensureMatrix(st.in[w], rows, st.cols)
		st.in[w] = bx
		for k := 0; k < rows; k++ {
			src := st.order[st.start+lo+k]
			if set.x != nil {
				copy(bx.Row(k), set.x.Row(src))
			} else {
				bx.SetRowBits(k, set.packed[src*wpr:(src+1)*wpr])
			}
			yb[k] = st.y[src]
		}
		out = bx
	}
	for _, p := range st.pos[w] {
		p.setPos(st.step, lo)
	}
	if pk != nil {
		out = layers[0].(*Dense).forwardBitsTrain(pk, rows, wpr)
		layers = layers[1:]
	}
	for _, l := range layers {
		out = l.Forward(out, true)
	}
	probs := ensureMatrix(st.probs[w], rows, st.classes)
	st.probs[w] = probs
	softmaxInto(probs, out)
	const eps = 1e-12
	loss, hits := 0.0, 0
	for i := 0; i < rows; i++ {
		yv := yb[i]
		p := probs.At(i, yv)
		if p < eps {
			p = eps
		}
		loss -= math.Log(p)
		if Argmax(probs.Row(i)) == yv {
			hits++
		}
	}
	st.lossSum[v] = loss
	st.hits[v] = hits
	// Softmax cross-entropy gradient in place: (softmax − onehot)/m,
	// with m the full batch size — the loss is a mean over the batch,
	// so every shard scales by the same constant.
	inv := 1 / float64(st.m)
	for i := 0; i < rows; i++ {
		probs.Data[i*st.classes+yb[i]] -= 1
	}
	for i := range probs.Data {
		probs.Data[i] *= inv
	}
	g := probs
	for i := len(layers) - 1; i >= 0; i-- {
		g = layers[i].Backward(g)
	}
	if pk != nil {
		st.clones[w][0].(*Dense).backwardBits(pk, rows, wpr, g)
	}
}

// Predictor runs batched inference through replica layers that own
// reusable scratch buffers, so chunked prediction loops (classifier
// evaluation, the online distinguishing phase) stop allocating fresh
// intermediate matrices per chunk. Results are bitwise identical to
// Network.Predict. A Predictor is not safe for concurrent use; derive
// one per goroutine with NewPredictor.
type Predictor struct {
	net    *Network
	layers []Layer // inference replicas of net's layers
	in     *Matrix // PredictBitsInto's expanded input, when it needs one
}

// NewPredictor builds a Predictor for the network.
func (n *Network) NewPredictor() *Predictor {
	return &Predictor{net: n, layers: cloneEvalStack(n.layers)}
}

// PredictInto writes the argmax class of each row of x into dst,
// growing it only if its capacity is insufficient, and returns the
// resulting slice. Steady-state calls with a recycled dst and a stable
// chunk shape perform no allocations.
func (p *Predictor) PredictInto(dst []int, x *Matrix) []int {
	return argmaxInto(dst, p.forward(x))
}

// forward returns the logits of x.
func (p *Predictor) forward(x *Matrix) *Matrix {
	out := x
	for _, l := range p.layers {
		out = l.Forward(out, false)
	}
	return out
}

// argmaxInto writes the argmax class of each row of logits into dst,
// growing it only if its capacity is insufficient.
func argmaxInto(dst []int, logits *Matrix) []int {
	if cap(dst) < logits.Rows {
		dst = make([]int, logits.Rows)
	}
	dst = dst[:logits.Rows]
	for i := range dst {
		dst[i] = Argmax(logits.Row(i))
	}
	return dst
}

// Predict returns the argmax class of each row of x.
func (p *Predictor) Predict(x *Matrix) []int {
	return p.PredictInto(nil, x)
}
