package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// Metric names the batch engine records through its Recorder, alongside
// the per-Detect detector.* metrics its worker detectors emit.
const (
	// MetricBatchBatches counts DetectBatch invocations.
	MetricBatchBatches = "detector.batch_calls"
	// MetricBatchCIRs counts CIRs submitted across all batches.
	MetricBatchCIRs = "detector.batch_cirs"
	// MetricBatchErrors counts per-item failures inside batches.
	MetricBatchErrors = "detector.batch_errors"
	// MetricBatchWorkerItems counts items processed per worker
	// ({worker="i"}), so a dashboard can see the static round-robin
	// partition's balance: worker w processes items w, w+W, w+2W, … of
	// every batch, failed items included. The partition depends only on
	// batch size and pool size, so the per-worker values are
	// deterministic. Recorded only when the Recorder supports labeled
	// series (obs.VecSource).
	MetricBatchWorkerItems = "detector.batch_worker_items"
)

// BatchInput is one CIR to detect on: the taps (sampled at the bank's
// interval) and the per-tap complex noise RMS feeding the detection
// threshold — exactly Detect's arguments.
type BatchInput struct {
	Taps     []complex128
	NoiseRMS float64
}

// BatchResult is one input's outcome. Exactly one of Responses/Err is
// meaningful: a failed item has Err set and no responses, and its failure
// never corrupts neighboring items. Responses slices alias engine-owned
// arenas and are valid only until the next DetectBatch (or Close) —
// copy them out to keep them longer.
type BatchResult struct {
	Responses []Response
	Err       error
}

// batchWorker is one worker's execution state: its detector (a clone of
// the prototype, built on the worker's first item) and the response arena
// its items' results point into.
type batchWorker struct {
	idx   int
	start chan struct{}
	det   *Detector  // nil until the first item
	resp  []Response // arena; batch results alias it until the next batch
}

// BatchDetector amortizes detection across many CIRs with a fixed worker
// pool. Each worker owns one Detector cloned from a prototype: the clones
// share the prototype's FFT plans and template spectra read-only, and each
// owns its mutable scratch, so the steady-state hot path allocates
// nothing. Worker w runs items w, w+W, w+2W, … of the input slice — a
// static rule — and every item's result depends only on its input, so
// DetectBatch output is bit-identical to looping Detect regardless of
// worker count or scheduling.
//
// The shared state is built for the DW1000 accumulator window
// (dw1000.CIRLength taps), the length every simulated reception has. An
// item of another length makes its worker's detector rebuild its own state
// (Detector.ensureState) — correct, but slow.
//
// A BatchDetector is not safe for concurrent use: one DetectBatch at a
// time, from one goroutine (the call itself fans out internally).
type BatchDetector struct {
	proto   *Detector
	workers []*batchWorker
	done    chan struct{}
	closed  bool

	cur     []BatchInput
	res     []BatchResult
	results []BatchResult // backing storage reused across batches

	rec obs.Recorder
	// workerItems holds the pre-resolved per-worker labeled counter
	// children (one per pool slot; nil unless rec supports labeled
	// series), so workers flush their item tallies without vec lookups.
	workerItems []*obs.Counter
	flight      *trace.Tracer
	onItem      func(done int)
	doneN       atomic.Int64
}

// NewBatchDetector builds a batch engine over the given bank and detector
// configuration. workers bounds the pool; 0 means GOMAXPROCS. The worker
// detectors run with Workers: 1 — the batch dimension is the parallelism.
func NewBatchDetector(bank *pulse.Bank, cfg DetectorConfig, workers int) (*BatchDetector, error) {
	if workers < 0 {
		return nil, fmt.Errorf("core: negative batch workers %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	proto, err := NewDetector(bank, cfg)
	if err != nil {
		return nil, err
	}
	// NewDetector precomputed the dw1000 accumulator window's bank. The
	// prototype never detects, so it stays pristine for cloning.
	b := &BatchDetector{
		proto:   proto,
		workers: make([]*batchWorker, workers),
		done:    make(chan struct{}),
	}
	for i := range b.workers {
		b.workers[i] = &batchWorker{idx: i, start: make(chan struct{})}
	}
	// Worker 0 runs inline in DetectBatch's goroutine; only the rest get
	// serve loops.
	for _, w := range b.workers[1:] {
		go b.serve(w)
	}
	return b, nil
}

// Workers returns the resolved worker-pool size.
func (b *BatchDetector) Workers() int { return len(b.workers) }

// Config returns the effective per-item detector configuration.
func (b *BatchDetector) Config() DetectorConfig { return b.proto.Config() }

// SetRecorder attaches an instrumentation sink to the engine and every
// worker detector; nil (the default) disables recording. Like
// Detector.SetRecorder this is not synchronized: set it before the first
// DetectBatch.
func (b *BatchDetector) SetRecorder(r obs.Recorder) {
	b.rec = r
	b.workerItems = nil
	if vs, ok := r.(obs.VecSource); ok {
		vec := vs.CounterVec(MetricBatchWorkerItems, "worker")
		b.workerItems = make([]*obs.Counter, len(b.workers))
		for i := range b.workerItems {
			b.workerItems[i] = vec.With(strconv.Itoa(i))
		}
	}
	b.eachWorkerDetector(func(d *Detector) { d.SetRecorder(r) })
}

// SetFlightRecorder attaches the decision-level flight recorder to the
// engine and every worker detector; nil disables it. Set it before the
// first DetectBatch.
func (b *BatchDetector) SetFlightRecorder(tr *trace.Tracer) {
	b.flight = tr
	b.eachWorkerDetector(func(d *Detector) { d.SetFlightRecorder(tr) })
}

// SetProgress installs a per-item completion callback: fn(done) is called
// once per worker-processed item with the number of items finished so far
// in the current batch. It may run concurrently from workers and must be
// cheap. Set it before the first DetectBatch.
func (b *BatchDetector) SetProgress(fn func(done int)) { b.onItem = fn }

func (b *BatchDetector) eachWorkerDetector(fn func(*Detector)) {
	for _, w := range b.workers {
		if w.det != nil {
			fn(w.det)
		}
	}
}

// Close shuts the worker goroutines down. The engine must not be used
// afterwards; results from the last batch remain readable. Idempotent.
func (b *BatchDetector) Close() {
	if b.closed {
		return
	}
	b.closed = true
	for _, w := range b.workers[1:] {
		close(w.start)
	}
}

// DetectBatch runs search and subtract on every input and returns one
// result per input, in input order. The returned slice and the response
// slices inside it are engine-owned and valid only until the next
// DetectBatch or Close. Per-item failures (empty CIR, bad noise RMS or
// taps, a length the dsp layer rejects, a panicking item) are reported in
// that item's Err; the batch itself never fails.
func (b *BatchDetector) DetectBatch(inputs []BatchInput) []BatchResult {
	if cap(b.results) < len(inputs) {
		b.results = make([]BatchResult, len(inputs))
	}
	res := b.results[:len(inputs)]
	for i := range res {
		res[i] = BatchResult{}
	}
	b.res, b.cur = res, inputs
	span := b.beginBatchSpan(len(inputs))
	b.doneN.Store(0)
	for _, w := range b.workers[1:] {
		w.start <- struct{}{}
	}
	b.runWorker(b.workers[0])
	for range b.workers[1:] {
		<-b.done
	}
	b.cur = nil
	if b.rec != nil || span != nil {
		b.endBatch(span, res)
	}
	return res
}

// serve is a non-inline worker's loop: one runWorker per batch.
func (b *BatchDetector) serve(w *batchWorker) {
	for range w.start {
		b.runWorker(w)
		b.done <- struct{}{}
	}
}

// runWorker processes this worker's statically assigned share of the
// current batch: items idx, idx+W, idx+2W, … The partition depends only on
// the batch size and the pool size — never on timing — and each item's
// result depends only on its input, so scheduling cannot reorder or change
// anything.
func (b *BatchDetector) runWorker(w *batchWorker) {
	w.resp = w.resp[:0]
	items := 0
	for i := w.idx; i < len(b.cur); i += len(b.workers) {
		items++
		b.runItem(w, i)
	}
	// One flush per batch per worker, through the pre-resolved child. The
	// tally is a function of the static partition alone, so the labeled
	// series stays deterministic.
	if ctr := b.workerItemCounter(w.idx); ctr != nil {
		ctr.Add(int64(items))
	}
}

// workerItemCounter returns the pre-resolved per-worker item counter, or
// nil when labeled recording is off (the shape nilinstr can check).
func (b *BatchDetector) workerItemCounter(idx int) *obs.Counter {
	if b.workerItems == nil {
		return nil
	}
	return b.workerItems[idx]
}

// runItem detects one input into the worker's arena, converting a panic
// into that item's error (with the arena rolled back) so one bad item
// cannot take the batch down or corrupt its neighbors.
func (b *BatchDetector) runItem(w *batchWorker, i int) {
	base := len(w.resp)
	defer func() {
		if r := recover(); r != nil {
			w.resp = w.resp[:base]
			b.res[i] = BatchResult{Err: fmt.Errorf("core: batch item %d panicked: %v", i, r)}
		}
		b.itemDone()
	}()
	det, err := b.workerDetector(w)
	if err != nil {
		b.res[i].Err = err
		return
	}
	in := b.cur[i]
	out, err := det.detectAppend(w.resp, in.Taps, in.NoiseRMS)
	w.resp = out
	if err != nil {
		b.res[i].Err = err
		return
	}
	// Full-capacity slice: appends for later items can never write into
	// this item's window.
	b.res[i].Responses = out[base:len(out):len(out)]
}

func (b *BatchDetector) itemDone() {
	if b.onItem != nil {
		b.onItem(int(b.doneN.Add(1)))
	}
}

// workerDetector returns this worker's detector, building it on first use
// with the engine's recorders attached.
func (b *BatchDetector) workerDetector(w *batchWorker) (*Detector, error) {
	if w.det != nil {
		return w.det, nil
	}
	d, err := newWorkerDetector(b.proto)
	if err != nil {
		return nil, err
	}
	if b.rec != nil {
		d.SetRecorder(b.rec)
	}
	if b.flight != nil {
		d.SetFlightRecorder(b.flight)
	}
	w.det = d
	return d, nil
}

// newWorkerDetector builds a worker detector from the prototype: the
// configuration, bank, templates, centers and norm constants are the
// prototype's, the dsp bank is a clone of whichever bank the prototype
// holds (sharing its read-only plans and template spectra), and the
// upsample plan and every mutable buffer are freshly owned. Workers is
// forced to 1 — the batch engine's pool is the parallelism.
func newWorkerDetector(proto *Detector) (*Detector, error) {
	cfg := proto.cfg
	cfg.Workers = 1
	n := proto.cirLen
	up, err := dsp.NewUpsamplePlan(n, cfg.Upsample)
	if err != nil {
		return nil, err
	}
	d := &Detector{
		cfg:       cfg,
		path:      proto.path,
		bank:      proto.bank,
		ts:        proto.ts,
		tsUp:      proto.tsUp,
		templates: proto.templates,
		centers:   proto.centers,
		norms:     proto.norms,
		cirLen:    n,
		upsample:  up,
		residual:  make([]complex128, n),
		up:        make([]complex128, n*cfg.Upsample),
		workers:   make([]detectWorker, 1),
	}
	if proto.fbank != nil {
		d.fbank = proto.fbank.Clone()
		d.workers[0].fscratch = d.fbank.NewScratch()
	}
	if proto.sbank != nil {
		d.sbank = proto.sbank.Clone()
		d.workers[0].sscratch = d.sbank.NewScratch()
	}
	return d, nil
}

// beginBatchSpan opens the batch's root span on the flight recorder, or
// returns nil when tracing is off or the root was sampled out.
func (b *BatchDetector) beginBatchSpan(cirs int) *trace.Span {
	if b.flight == nil {
		return nil
	}
	sp := b.flight.Begin(trace.SpanDetectBatch, trace.Attrs{
		"cirs":    cirs,
		"workers": len(b.workers),
	})
	if !sp.Recording() {
		return nil
	}
	return sp
}

// endBatch tallies the finished batch into the recorder and span. Only
// reached with a recorder or live span attached (nilinstr contract).
func (b *BatchDetector) endBatch(span *trace.Span, res []BatchResult) {
	failed, responses := 0, 0
	for i := range res {
		if res[i].Err != nil {
			failed++
		}
		responses += len(res[i].Responses)
	}
	if rec := b.rec; rec != nil {
		rec.Count(MetricBatchBatches, 1)
		rec.Count(MetricBatchCIRs, int64(len(res)))
		rec.Count(MetricBatchErrors, int64(failed))
	}
	if span != nil {
		span.EndWith(trace.Attrs{
			"errors":    failed,
			"responses": responses,
		})
	}
}
