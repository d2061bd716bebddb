package nn

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/prng"
)

// Network is a sequential stack of layers trained against softmax
// cross-entropy. The last layer's OutDim is the class count.
type Network struct {
	layers []Layer
	fit    *fitState // cached training engine (see parallel.go)
}

// NewNetwork validates that consecutive layer dimensions chain and
// returns the stack.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network needs at least one layer")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutDim() != layers[i].InDim() {
			return nil, fmt.Errorf("nn: layer %d (%s) outputs %d features but layer %d (%s) expects %d",
				i-1, layers[i-1].Name(), layers[i-1].OutDim(), i, layers[i].Name(), layers[i].InDim())
		}
	}
	return &Network{layers: layers}, nil
}

// Layers returns the layer stack (callers must not mutate it).
func (n *Network) Layers() []Layer { return n.layers }

// InDim returns the expected feature width.
func (n *Network) InDim() int { return n.layers[0].InDim() }

// Classes returns the output width (number of classes).
func (n *Network) Classes() int { return n.layers[len(n.layers)-1].OutDim() }

// Params returns every trainable tensor in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars — the
// "# Parameters" column of Table 3.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// Summary renders a Keras-style per-layer summary.
func (n *Network) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Network (%d parameters)\n", n.ParamCount())
	for i, l := range n.layers {
		params := 0
		for _, p := range l.Params() {
			params += len(p.W)
		}
		fmt.Fprintf(&sb, "  %2d. %-28s params=%d\n", i, l.Name(), params)
	}
	return sb.String()
}

// Forward runs the full stack and returns logits.
func (n *Network) Forward(x *Matrix, train bool) *Matrix {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Probs returns softmax class probabilities for a batch.
func (n *Network) Probs(x *Matrix) *Matrix {
	return Softmax(n.Forward(x, false))
}

// Predict returns the argmax class of each row.
func (n *Network) Predict(x *Matrix) []int {
	logits := n.Forward(x, false)
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = Argmax(logits.Row(i))
	}
	return out
}

// PredictOne classifies a single feature vector.
func (n *Network) PredictOne(x []float64) int {
	m := FromRows([][]float64{x})
	return n.Predict(m)[0]
}

// Evaluate returns mean accuracy and mean cross-entropy loss on a
// labelled set.
func (n *Network) Evaluate(x *Matrix, y []int) (acc, loss float64) {
	probs := n.Probs(x)
	hit := 0
	for i := range y {
		if Argmax(probs.Row(i)) == y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(y)), CrossEntropy(probs, y)
}

// FitConfig controls training.
type FitConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Seed      uint64 // shuffling seed
	// OnEpoch, if non-nil, is called after each epoch with the epoch
	// index (0-based), mean training loss and training accuracy.
	OnEpoch func(epoch int, loss, acc float64)
	// LRSchedule, if non-nil, sets the optimizer learning rate at the
	// start of each epoch (the optimizer must implement LRScheduler;
	// both SGD and Adam do). See CyclicLR.
	LRSchedule func(epoch int) float64
	// Workers is the number of goroutines sharing each mini-batch's
	// forward/backward, gradient-reduce and optimizer work. 0 means
	// GOMAXPROCS; values above the engine's canonical shard count (8)
	// are clamped. Training results are byte-identical at every worker
	// count — see parallel.go.
	// Networks containing batch-coupled layers (BatchNorm, LSTM) ignore
	// this: the engine runs each of their mini-batches as one
	// whole-batch shard.
	Workers int
}

// History records per-epoch training metrics.
type History struct {
	Loss []float64
	Acc  []float64
}

// Fit trains the network with mini-batch gradient descent. x rows are
// samples, y the integer class labels. Every mini-batch runs through
// the deterministic engine in parallel.go.
func (n *Network) Fit(x *Matrix, y []int, cfg FitConfig) (*History, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("nn: %d samples but %d labels", x.Rows, len(y))
	}
	return n.train(trainSet{x: x}, y, cfg)
}

// FitBits is Fit over packed {0,1} rows, the training twin of
// PredictBitsInto: sample i is packed[i*wordsPerRow :
// (i+1)*wordsPerRow], feature j at bit j%64 of word j/64 (the layout
// SetRowBits reads), and bits at or beyond the network's input width
// are ignored. The trained weights and History are bitwise those of
// Fit on the rows expanded with SetRowBits, at every worker count.
// When the engine shards the network and its first layer is Dense,
// that layer trains straight from the bits; otherwise each shard is
// expanded with SetRowBits as it is gathered. No float copy of the
// training set is made.
func (n *Network) FitBits(packed []uint64, wordsPerRow int, y []int, cfg FitConfig) (*History, error) {
	if wordsPerRow <= 0 || len(packed) != len(y)*wordsPerRow {
		return nil, fmt.Errorf("nn: %d packed words for %d samples of %d words", len(packed), len(y), wordsPerRow)
	}
	return n.train(trainSet{packed: packed, wpr: wordsPerRow}, y, cfg)
}

// train is the validation and epoch loop Fit and FitBits share; they
// differ only in how the engine gathers each shard from set.
func (n *Network) train(set trainSet, y []int, cfg FitConfig) (*History, error) {
	rows := len(y)
	if rows == 0 {
		return nil, fmt.Errorf("nn: empty training set")
	}
	cols := n.InDim()
	if set.x != nil && set.x.Cols != cols {
		return nil, fmt.Errorf("nn: samples have width %d, network expects %d", set.x.Cols, cols)
	}
	if set.x == nil && set.wpr*64 < cols {
		return nil, fmt.Errorf("nn: %d words per row hold fewer than the %d features the network expects", set.wpr, cols)
	}
	classes := n.Classes()
	for i, label := range y {
		if label < 0 || label >= classes {
			return nil, fmt.Errorf("nn: label %d at index %d out of range [0,%d)", label, i, classes)
		}
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("nn: epochs must be positive, got %d", cfg.Epochs)
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = 128
	}
	if bs > rows {
		bs = rows
	}
	opt := cfg.Optimizer
	if opt == nil {
		opt = NewAdam(0)
	}

	if cfg.LRSchedule != nil {
		if _, ok := opt.(LRScheduler); !ok {
			return nil, fmt.Errorf("nn: optimizer %s does not support learning-rate schedules", opt.Name())
		}
	}

	r := prng.New(cfg.Seed ^ 0xfeedface)
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := n.fitStateFor(bs, cols, workers)
	hist := &History{}
	st.bind(set, y, order, opt)
	st.startPool()
	defer st.stopPool()
	var step uint64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.LRSchedule != nil {
			opt.(LRScheduler).SetLR(cfg.LRSchedule(epoch))
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss, totalHit, seen := 0.0, 0, 0
		for start := 0; start < rows; start += bs {
			m := min(bs, rows-start)
			lossSum, hits := st.runStep(start, m, step)
			step++
			totalLoss += lossSum
			totalHit += hits
			seen += m
		}
		epochLoss := totalLoss / float64(seen)
		epochAcc := float64(totalHit) / float64(seen)
		hist.Loss = append(hist.Loss, epochLoss)
		hist.Acc = append(hist.Acc, epochAcc)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, epochLoss, epochAcc)
		}
	}
	return hist, nil
}
