package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// ErrOverloaded is returned by Submit when the request queue is full;
// HTTP handlers translate it to 429 + Retry-After.
var ErrOverloaded = errors.New("serve: queue full, shedding load")

// ErrStopped is returned by Submit after the scheduler has begun
// draining.
var ErrStopped = errors.New("serve: scheduler stopped")

// SchedulerConfig bounds the micro-batching scheduler.
type SchedulerConfig struct {
	// MaxBatch is the row count at which a collecting batch flushes
	// immediately (default 256). One Submit may carry at most MaxBatch
	// rows.
	MaxBatch int
	// MaxDelay is how long a non-full batch waits for more requests to
	// coalesce before flushing (default 2ms) — the latency the first
	// request in a batch pays, at most, for throughput.
	MaxDelay time.Duration
	// Workers is the inference worker count (default 2). Each worker
	// owns one packed batch buffer and one Predictor replica per
	// model, so the steady state performs no per-batch allocation.
	Workers int
	// QueueDepth bounds the submitted-but-unscheduled request count
	// (default 256). A full queue sheds new requests with
	// ErrOverloaded instead of queueing unboundedly.
	QueueDepth int
}

func (c *SchedulerConfig) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
}

// task is one submitted classification request: packed rows for one
// model, and a buffered reply channel so a worker can always complete
// it without blocking, even if the submitter timed out and left.
type task struct {
	entry  *Entry
	packed []uint64 // rows × bits.PackedWords(entry.FeatureLen()) words
	rows   int
	ctx    context.Context
	out    chan taskResult
}

type taskResult struct {
	classes []int
	err     error
}

// Scheduler coalesces concurrent classification requests into batched
// forward passes. A dispatcher goroutine collects submitted tasks
// until MaxBatch rows have accumulated or the oldest task has waited
// MaxDelay, then hands the batch to one of Workers inference
// goroutines. Within a batch, tasks for the same model entry share a
// single Predictor call.
type Scheduler struct {
	cfg     SchedulerConfig
	queue   chan *task
	batches chan []*task

	// Instrumentation, recorded at flush/execute time.
	BatchSizes *metrics.Histogram // rows per Predictor call
	Batches    *metrics.Counter   // Predictor calls
	Shed       *metrics.Counter   // submits rejected with ErrOverloaded

	// Per-model load, keyed by model name: accepted submits, accepted
	// rows, and Predictor calls. These are what a cluster router's
	// aggregated /metrics uses to show where each model's traffic
	// lands.
	ModelRequests *metrics.CounterVec
	ModelRows     *metrics.CounterVec
	ModelBatches  *metrics.CounterVec

	stopMu   sync.RWMutex
	stopping bool
	inflight sync.WaitGroup // submitted tasks not yet replied to
	done     sync.WaitGroup // dispatcher + workers
}

// NewScheduler builds and starts a scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	s := newScheduler(cfg)
	s.start()
	return s
}

// newScheduler builds the scheduler without starting its goroutines;
// tests use the unstarted form to exercise queue-full shedding
// deterministically.
func newScheduler(cfg SchedulerConfig) *Scheduler {
	cfg.setDefaults()
	return &Scheduler{
		cfg:           cfg,
		queue:         make(chan *task, cfg.QueueDepth),
		batches:       make(chan []*task),
		BatchSizes:    metrics.NewHistogram(uint64(cfg.MaxBatch)),
		Batches:       &metrics.Counter{},
		Shed:          &metrics.Counter{},
		ModelRequests: &metrics.CounterVec{},
		ModelRows:     &metrics.CounterVec{},
		ModelBatches:  &metrics.CounterVec{},
	}
}

func (s *Scheduler) start() {
	s.done.Add(1 + s.cfg.Workers)
	go s.dispatch()
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
}

// QueueLen reports the current queue depth (for gauges).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// MaxBatch reports the configured flush threshold.
func (s *Scheduler) MaxBatch() int { return s.cfg.MaxBatch }

// Submit enqueues a request of rows {0,1} feature rows for entry and
// blocks until a worker replies or ctx is done. packed holds the rows
// in the layout of bits.PackFloats, bits.PackedWords(entry.FeatureLen())
// words each, already validated to that width; the caller must not
// modify it afterwards, since a batch that outlives a deadline return
// still reads it. Submit
// returns ErrOverloaded when the queue is full and ctx.Err() when the
// deadline expires first; the batch still executes in that case, its
// result discarded.
func (s *Scheduler) Submit(ctx context.Context, entry *Entry, packed []uint64, rows int) ([]int, error) {
	if rows == 0 {
		return nil, nil
	}
	if rows > s.cfg.MaxBatch {
		return nil, fmt.Errorf("serve: request has %d rows, max %d per request", rows, s.cfg.MaxBatch)
	}
	t := &task{entry: entry, packed: packed, rows: rows, ctx: ctx, out: make(chan taskResult, 1)}

	s.stopMu.RLock()
	if s.stopping {
		s.stopMu.RUnlock()
		return nil, ErrStopped
	}
	s.inflight.Add(1)
	select {
	case s.queue <- t:
		s.stopMu.RUnlock()
		s.ModelRequests.With(entry.Name).Inc()
		s.ModelRows.With(entry.Name).Add(uint64(rows))
	default:
		s.inflight.Done()
		s.stopMu.RUnlock()
		s.Shed.Inc()
		return nil, ErrOverloaded
	}

	select {
	case res := <-t.out:
		return res.classes, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stop drains the scheduler: new Submits fail with ErrStopped, every
// already-submitted task is executed and replied to, then the worker
// goroutines exit. Safe to call once; the HTTP layer calls it after
// the listener has shut down.
func (s *Scheduler) Stop() {
	s.stopMu.Lock()
	if s.stopping {
		s.stopMu.Unlock()
		return
	}
	s.stopping = true
	s.stopMu.Unlock()
	s.inflight.Wait() // all queued tasks answered
	close(s.queue)    // dispatcher flushes (nothing left) and exits
	s.done.Wait()
}

// dispatch is the single collector goroutine: it blocks for the first
// task of a batch, then keeps the batch open until MaxBatch rows have
// accumulated or MaxDelay has elapsed, whichever is first.
func (s *Scheduler) dispatch() {
	defer s.done.Done()
	var timer *time.Timer
	for {
		t, ok := <-s.queue
		if !ok {
			close(s.batches)
			return
		}
		batch := []*task{t}
		rows := t.rows
		if timer == nil {
			timer = time.NewTimer(s.cfg.MaxDelay)
		} else {
			timer.Reset(s.cfg.MaxDelay)
		}
		closed := false
	collect:
		for rows < s.cfg.MaxBatch {
			select {
			case t2, ok := <-s.queue:
				if !ok {
					closed = true
					break collect
				}
				batch = append(batch, t2)
				rows += t2.rows
			case <-timer.C:
				break collect
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		s.batches <- batch
		if closed {
			close(s.batches)
			return
		}
	}
}

// inferState is one worker's per-model scratch: a Predictor replica
// over the entry's network and a reusable output slice, mirroring
// NNClassifier's zero-allocation prediction discipline but private to
// the worker so workers never contend. The replica is rebuilt when a
// hot reload swaps the entry's network.
type inferState struct {
	net  *nn.Network
	pred *nn.Predictor
	out  []int
}

// workerScratch is one worker's state across batches: its per-model
// Predictors and the buffer a group's packed rows are gathered into.
type workerScratch struct {
	models map[string]*inferState
	words  []uint64
}

// worker executes batches: tasks are grouped by model entry in
// first-seen order, each group runs as one Predictor call, and the
// group's predictions are split back across its tasks. Tasks whose
// context expired while queued are answered with the context error
// without spending forward-pass work on them.
func (s *Scheduler) worker() {
	defer s.done.Done()
	ws := &workerScratch{models: map[string]*inferState{}}
	var group []*task // scratch, reused across batches
	for batch := range s.batches {
		for len(batch) > 0 {
			lead := batch[0].entry
			group = group[:0]
			rest := batch[:0]
			for _, t := range batch {
				if t.entry == lead {
					group = append(group, t)
				} else {
					rest = append(rest, t)
				}
			}
			batch = rest
			s.runGroup(ws, lead, group)
		}
	}
}

// runGroup executes one same-model group as a single batched forward
// pass over the tasks' packed rows.
func (s *Scheduler) runGroup(ws *workerScratch, entry *Entry, group []*task) {
	live := group[:0]
	rows := 0
	for _, t := range group {
		if err := t.ctx.Err(); err != nil {
			t.out <- taskResult{err: err}
			s.inflight.Done()
			continue
		}
		live = append(live, t)
		rows += t.rows
	}
	if rows == 0 {
		return
	}
	st := ws.models[entry.Name]
	if st == nil {
		st = &inferState{}
		ws.models[entry.Name] = st
	}
	if st.net != entry.net {
		st.net = entry.net
		st.pred = entry.net.NewPredictor()
	}
	wpr := bits.PackedWords(entry.FeatureLen())
	ws.words = ws.words[:0]
	for _, t := range live {
		ws.words = append(ws.words, t.packed[:t.rows*wpr]...)
	}
	st.out = st.pred.PredictBitsInto(st.out, ws.words, rows, wpr)
	classes := st.out
	s.Batches.Inc()
	s.BatchSizes.Observe(uint64(rows))
	s.ModelBatches.With(entry.Name).Inc()
	off := 0
	for _, t := range live {
		out := make([]int, t.rows)
		copy(out, classes[off:off+t.rows])
		off += t.rows
		t.out <- taskResult{classes: out}
		s.inflight.Done()
	}
}
