package server

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"goptm/internal/core"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/stats"
	"goptm/internal/workload/kvstore"
)

// The executor is where the paper's batching argument becomes service
// design. Each durable commit pays a fixed tail — log flush, sfence,
// commit-marker flush — that on Optane is dominated by WPQ drain
// latency, so N separate set transactions pay that tail N times.
// Coalescing adjacent writes into one transaction pays it once per
// batch, trading a bounded queueing delay (the batch window) for a
// large cut in per-op durable-commit cost. At high load the queue
// keeps batches full and p99 latency drops; at low load the window
// expires with a batch of one and latency is unchanged. Shards
// partition the keyspace by key hash so batches never conflict and
// commit in parallel. With Adaptive set, each shard's (cap, window)
// pair is driven by the AIMD controller in controller.go instead of
// staying pinned at the configured values.

// Op identifies one KV operation.
type Op uint8

const (
	OpGet Op = iota
	OpSet
	OpDelete
	OpIncr
)

// Request is one queued KV command plus its completion state. The
// submitter owns it until Submit succeeds; after completion (done
// closed, or Submit returned false) the submitter owns it again.
type Request struct {
	Op    Op
	Key   []byte
	Value []byte // set payload
	Flags uint32 // set: opaque memcached flags
	Delta uint64 // incr amount

	// EnqVT is the virtual-time enqueue stamp. Submit fills it from
	// the target shard's clock when zero; loadsim pre-stamps it from
	// the generator thread's clock.
	EnqVT int64

	// Warmup excludes this request from the latency histograms (it
	// still executes, counts as executed, and can shed). Loadsim sets
	// it on ramp-up arrivals so percentile comparisons measure steady
	// state, the same warmup exclusion the harness applies.
	Warmup bool

	// Done is closed when the request completes (execution, shed, or
	// drain sweep). Submitters that need the result must set it; a nil
	// Done makes the request fire-and-forget.
	Done chan struct{}

	// Trace carries the request-lifecycle stamps when this request was
	// sampled (Executor.TraceStart); the executor fills the queue, pop,
	// execute, drain, journal, and ack boundaries and hands the
	// completed record to the obs recorder. Nil — the common case —
	// costs one pointer check per stamping site.
	Trace *obs.ReqRecord

	// Results, valid once Done is closed.
	Found    bool   // get/delete/incr: key existed
	Val      []byte // get result
	ValFlags uint32 // get result flags
	NewVal   uint64 // incr result
	Shed     bool   // dropped by deadline shedding, not executed
	Err      error  // kv-layer error (bad key, non-numeric incr, drain)
}

// ErrDraining completes requests still queued when the executor shuts
// down.
var ErrDraining = errors.New("server: executor draining")

// ErrDurable marks a write whose transaction committed in simulated
// memory but whose durable-ack barrier (journal flush) failed: the
// server cannot promise the write survives a process kill, so it
// answers SERVER_ERROR instead of acking.
var ErrDurable = errors.New("server: durable acknowledgment failed")

// ExecConfig parameterizes the executor.
type ExecConfig struct {
	Shards     int // worker shards; thread i+1 of the machine drives shard i
	QueueDepth int // per-shard bounded queue; 0 selects 256
	// MaxBatch caps ops coalesced into one transaction; 0 selects the
	// store's MaxBatch. 1 disables coalescing (the baseline). Under
	// Adaptive it is the starting batch cap, and is raised to the
	// controller's upper bound for slice sizing.
	MaxBatch int
	// BatchWindowNS is how long a shard waits, in virtual ns, to fill
	// a batch after its first request; 0 selects 2000 (2 µs).
	// Negative disables the wait (batch = whatever is queued now).
	// Under Adaptive it is the starting window.
	BatchWindowNS int64
	// DeadlineNS sheds requests older than this at pop time — before
	// they consume a batch slot; 0 selects 1_000_000 (1 ms). Negative
	// disables shedding.
	DeadlineNS int64
	PollNS     int64 // idle poll quantum in virtual ns; 0 selects 200
	// IdleSleep, when positive, adds a host-time sleep to idle polls so
	// the TCP server doesn't spin a core per shard. Must stay 0 under
	// lockstep: a sleeping thread holds the scheduler floor.
	IdleSleep time.Duration
	// DurableAck runs Store.DrainMedia then Store.FlushJournal after
	// every batch that contains a write, before any request in the
	// batch completes: the batch's persistence traffic reaches
	// simulated media — and the attached write-ahead journal, if any —
	// before the response goes out, so an acked write survives a kill
	// of the host process.
	// Off by default: the barrier adds drain waits to the virtual
	// timeline, which would shift loadsim's pinned latency curves.
	DurableAck bool
	// Adaptive hands each shard's (batch cap, window) pair to the
	// per-shard AIMD controller (controller.go), bounded and paced by
	// Ctrl. MaxBatch/BatchWindowNS become the starting operating
	// point.
	Adaptive bool
	Ctrl     CtrlConfig

	// TraceSample enables request-lifecycle tracing: ~1 in TraceSample
	// submitted requests is stamped through the parse→queue→batch→
	// execute→drain→journal→ack chain and retained by the obs recorder
	// (1 samples everything; 0, the default, disables sampling — the
	// zero-overhead path). Sampling requires a tracing recorder:
	// TraceRecorder if set, else the store machine's.
	TraceSample int
	// TraceSeed seeds the deterministic sampling hash; a fixed (seed,
	// sample) pair picks the same arrivals on every run.
	TraceSeed uint64
	// WallClock stamps lifecycle records with host time instead of the
	// shard's virtual clock — the TCP server sets it (its requests live
	// on wall time); loadsim leaves it off.
	WallClock bool
	// TraceRecorder overrides the machine's recorder for request
	// records only — the TCP server uses a standalone recorder so
	// request tracing doesn't force machine-wide span retention.
	TraceRecorder *obs.Recorder
	// Flight, when non-nil, receives a FlightRecord for every request
	// completion (executed, shed, or swept at drain).
	Flight *FlightRecorder

	// The static operating point before Adaptive raised MaxBatch to
	// the controller bound — the controller's start values.
	startCap    int
	startWindow int64
}

func (c ExecConfig) withDefaults(st *Store) ExecConfig {
	if c.Shards <= 0 {
		c.Shards = st.cfg.Shards
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = st.cfg.MaxBatch
	}
	if c.MaxBatch > st.cfg.MaxBatch {
		c.MaxBatch = st.cfg.MaxBatch // the log is sized for this bound
	}
	if c.BatchWindowNS == 0 {
		c.BatchWindowNS = 2000
	}
	if c.DeadlineNS == 0 {
		c.DeadlineNS = 1_000_000
	}
	if c.PollNS <= 0 {
		c.PollNS = 200
	}
	if c.Adaptive {
		c.startCap = c.MaxBatch
		c.startWindow = c.BatchWindowNS
		if c.startWindow < 0 {
			c.startWindow = 0
		}
		c.Ctrl = c.Ctrl.withDefaults(c.MaxBatch)
		if c.Ctrl.MaxBatch > st.cfg.MaxBatch {
			c.Ctrl.MaxBatch = st.cfg.MaxBatch // log sizing bounds the cap too
		}
		if c.MaxBatch < c.Ctrl.MaxBatch {
			c.MaxBatch = c.Ctrl.MaxBatch // slice capacity for the largest batch
		}
	}
	return c
}

// shard is one keyspace partition: a bounded FIFO and the simulated
// thread that drains it.
type shard struct {
	mu    sync.Mutex
	queue []*Request
	head  int

	lastVT atomic.Int64 // the shard thread's clock, for Submit stamping

	ctrl *ctrl // adaptive (cap, window) controller; nil when static

	// statsMu guards the histograms and executed: the worker takes it
	// once per batch, so Stats can merge live stats from host
	// goroutines without racing the shard thread.
	statsMu    sync.Mutex
	latency    stats.Histogram // enqueue→completion, virtual ns
	batchSizes stats.Histogram
	ackLat     stats.Histogram // durable-ack barrier (drain+journal), host ns
	executed   int64
	shed       atomic.Int64 // per-shard deadline sheds (stats reads it live)
}

// Executor shards the store's keyspace and drains each shard's queue
// on its own simulated thread, coalescing writes into batched
// transactions.
type Executor struct {
	st  *Store
	cfg ExecConfig
	met *metrics.Registry
	rec *obs.Recorder

	shards []*shard
	queued atomic.Int64 // across all shards, for the queue-depth track

	tracer *reqTracer      // request-lifecycle sampling; nil when disabled
	flight *FlightRecorder // completed-request ring; nil when disabled

	inputsDone atomic.Bool
	draining   atomic.Bool
	wg         sync.WaitGroup
}

// NewExecutor starts the shard workers on st's threads 1..Shards.
// Thread 0 stays free for the owner (setup, load generation, admin).
func NewExecutor(st *Store, cfg ExecConfig) *Executor {
	cfg = cfg.withDefaults(st)
	e := &Executor{
		st:     st,
		cfg:    cfg,
		met:    st.tm.Metrics(),
		rec:    st.tm.Recorder(),
		shards: make([]*shard, cfg.Shards),
		flight: cfg.Flight,
	}
	traceRec := cfg.TraceRecorder
	if traceRec == nil {
		traceRec = st.tm.Recorder()
	}
	e.tracer = newReqTracer(traceRec, cfg.TraceSample, cfg.TraceSeed, cfg.WallClock)
	for i := range e.shards {
		e.shards[i] = &shard{}
		if cfg.Adaptive {
			e.shards[i].ctrl = newCtrl(cfg.Ctrl, cfg.startCap, cfg.startWindow, cfg.DeadlineNS)
		}
	}
	e.wg.Add(cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		// Attach here, in shard order, not in the worker goroutines:
		// under lockstep the engine's turn order follows attachment
		// order, and a deterministic schedule needs a deterministic
		// attach sequence.
		th := st.tm.Thread(i + 1)
		go e.runShard(i, th)
	}
	return e
}

// Config returns the executor's configuration (after defaulting).
func (e *Executor) Config() ExecConfig { return e.cfg }

// ShardOf returns the shard index serving key.
func (e *Executor) ShardOf(key []byte) int {
	return int(kvstore.HashKey(key) % uint64(len(e.shards)))
}

// Submit enqueues req on its key's shard. It reports false — without
// completing req — when the shard queue is full or the executor is
// draining; the caller answers "SERVER_ERROR busy". On true, req
// completes asynchronously (Done closes if set).
func (e *Executor) Submit(req *Request) bool {
	if e.draining.Load() {
		return false
	}
	si := e.ShardOf(req.Key)
	s := e.shards[si]
	if req.EnqVT == 0 {
		req.EnqVT = s.lastVT.Load()
	}
	if req.Trace != nil {
		req.Trace.Shard = int32(si)
		req.Trace.Op = uint8(req.Op)
		req.Trace.Stamp(1, e.tracer.now(req.EnqVT))
	}
	s.mu.Lock()
	if len(s.queue)-s.head >= e.cfg.QueueDepth {
		s.mu.Unlock()
		e.met.Add(metrics.CtrSrvShed, 1)
		return false
	}
	s.queue = append(s.queue, req)
	s.mu.Unlock()
	e.queued.Add(1)
	e.met.Add(metrics.CtrSrvRequests, 1)
	return true
}

// TraceStart makes the request-lifecycle sampling decision for one
// arriving request: nil (not sampled, or tracing off — the common,
// allocation-free case) or a record with the parse boundary stamped.
// Frontends call it where the request enters the system — the TCP
// parser at command parse, loadsim at arrival generation — assign the
// result to Request.Trace, and Submit plus the shard worker fill the
// remaining boundaries. vt is the caller's virtual clock; ignored
// under WallClock.
func (e *Executor) TraceStart(vt int64) *obs.ReqRecord { return e.tracer.start(vt) }

// popLive removes queued requests from shard s until it has gathered
// up to max live ones, shedding any that aged past deadline *at pop
// time* — an expired request completes as shed right here and never
// consumes a batch slot. It appends the live requests to *out and
// reports the backlog observed before popping (the controller's
// queue-depth signal) plus the sheds performed.
func (s *shard) popLive(e *Executor, max int, now, deadline int64, out *[]*Request) (backlog, sheds int) {
	s.mu.Lock()
	backlog = len(s.queue) - s.head
	taken, live := 0, 0
	for s.head < len(s.queue) && live < max {
		req := s.queue[s.head]
		s.head++
		taken++
		if deadline > 0 && now-req.EnqVT > deadline {
			req.Shed = true
			sheds++
			if req.Trace != nil {
				// The lifecycle ends at the pop: collapse every remaining
				// boundary to the shed instant so the chain still telescopes.
				tnow := e.tracer.now(now)
				for k := 2; k < len(req.Trace.TS); k++ {
					req.Trace.Stamp(k, tnow)
				}
				req.Trace.Shed = true
				e.tracer.finish(req.Trace)
			}
			e.recordFlight(req, now)
			finish(req)
			continue
		}
		if req.Trace != nil {
			req.Trace.Stamp(2, e.tracer.now(now))
		}
		*out = append(*out, req)
		live++
	}
	if s.head == len(s.queue) {
		// Reuse the backing array once drained; keeps steady state
		// allocation-free.
		s.queue = s.queue[:0]
		s.head = 0
	}
	s.mu.Unlock()
	if taken > 0 {
		e.queued.Add(int64(-taken))
	}
	if sheds > 0 {
		s.shed.Add(int64(sheds))
		e.met.Add(metrics.CtrSrvShed, int64(sheds))
	}
	return backlog, sheds
}

// finish completes req.
func finish(req *Request) {
	if req.Done != nil {
		close(req.Done)
	}
}

// runShard is one shard worker: poll, assemble a batch (shedding the
// overdue at pop time), execute the live requests in one transaction,
// and let the controller re-evaluate the operating point. It must
// keep moving virtual time (Compute) whenever idle so the other
// threads of the windowed engine never wait on it.
func (e *Executor) runShard(i int, th *core.Thread) {
	defer e.wg.Done()
	defer th.Detach()
	s := e.shards[i]
	// A simulated power failure (crash-injection hook) unwinds the
	// in-flight transaction without rollback; the worker dies with the
	// machine, exactly as a real one would. Requests in the cut batch
	// never complete — their durability is decided by recovery. The
	// clock stamp matters: Crash(vt) replays the device's pending
	// queue only up to vt, so the failure instant must be recorded.
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(core.PowerFailure); !ok {
				panic(r)
			}
			s.lastVT.Store(th.Now())
		}
	}()
	batch := make([]*Request, 0, e.cfg.MaxBatch)
	for {
		s.lastVT.Store(th.Now())
		cap, window := e.cfg.MaxBatch, e.cfg.BatchWindowNS
		if s.ctrl != nil {
			cap, window = s.ctrl.params()
		}
		batch = batch[:0]
		backlog, sheds := s.popLive(e, cap, th.Now(), e.cfg.DeadlineNS, &batch)
		if s.ctrl != nil {
			s.ctrl.observePop(backlog, sheds)
		}
		if len(batch) == 0 {
			if e.inputsDone.Load() {
				// A Submit that landed between the pop above and this load
				// would be stranded for Drain's ErrDraining sweep even
				// though it was accepted before shutdown began. The load
				// happens-after any Submit that preceded InputsDone, so one
				// final pop is guaranteed to see such a request; only an
				// empty queue here is safe to abandon.
				s.popLive(e, cap, th.Now(), e.cfg.DeadlineNS, &batch)
				if len(batch) == 0 {
					return
				}
				e.execBatch(s, th, batch)
				e.ctrlStep(s, th)
				continue
			}
			e.ctrlStep(s, th)
			th.Compute(e.cfg.PollNS)
			if e.cfg.IdleSleep > 0 {
				time.Sleep(e.cfg.IdleSleep)
			}
			continue
		}
		// Group commit: wait out the batch window for stragglers.
		if window > 0 && len(batch) < cap {
			deadline := th.Now() + window
			for len(batch) < cap && th.Now() < deadline {
				before := len(batch)
				_, sheds := s.popLive(e, cap-len(batch), th.Now(), e.cfg.DeadlineNS, &batch)
				if s.ctrl != nil && sheds > 0 {
					s.ctrl.observeSheds(sheds)
				}
				if len(batch) == before {
					th.Compute(e.cfg.PollNS)
					continue
				}
			}
		}
		e.execBatch(s, th, batch)
		e.ctrlStep(s, th)
	}
}

// ctrlStep lets the shard's controller evaluate, and mirrors the step
// into the metrics registry and the obs counter tracks. Pure
// accounting: no virtual time moves here.
func (e *Executor) ctrlStep(s *shard, th *core.Thread) {
	if s.ctrl == nil {
		return
	}
	stepped, dir := s.ctrl.maybeStep(th.Now())
	if !stepped {
		return
	}
	e.met.Add(metrics.CtrSrvCtrlSteps, 1)
	switch {
	case dir > 0:
		e.met.Add(metrics.CtrSrvCtrlUp, 1)
	case dir < 0:
		e.met.Add(metrics.CtrSrvCtrlDown, 1)
	}
	if e.rec.Tracing() {
		cap, window := s.ctrl.params()
		now := th.Now()
		e.rec.CountShared(obs.TrackServerBatchCap, now, float64(cap))
		e.rec.CountShared(obs.TrackServerWindow, now, float64(window))
	}
}

// execBatch runs the live requests in one transaction and completes
// everything. Deadline shedding already happened at pop time.
func (e *Executor) execBatch(s *shard, th *core.Thread, live []*Request) {
	if len(live) > 0 {
		if e.tracer != nil {
			// The batch closes here: every member's batch-formation phase
			// ends at the same transaction start.
			tnow := e.tracer.now(th.Now())
			for _, req := range live {
				if req.Trace != nil {
					req.Trace.Stamp(3, tnow)
				}
			}
		}
		kv := e.st.kv
		th.Atomic(func(tx *core.Tx) {
			// The body re-runs on abort: every result field is plainly
			// overwritten so retries stay idempotent.
			for _, req := range live {
				switch req.Op {
				case OpGet:
					req.Val, req.ValFlags, req.Found = kv.Get(tx, req.Key)
				case OpSet:
					req.Err = kv.Set(tx, req.Key, req.Value, req.Flags)
				case OpDelete:
					req.Found = kv.Delete(tx, req.Key)
				case OpIncr:
					req.NewVal, req.Found, req.Err = kv.Incr(tx, req.Key, req.Delta)
				}
			}
		})
		// Stamp the execute boundary at the actual moment: under
		// WallClock the tracer's clock is "now", so deferring the stamp
		// past the barrier would order it after the drain boundary.
		var tExec int64
		if e.tracer != nil {
			tExec = e.tracer.now(th.Now())
		}
		// Without a barrier the drain and journal boundaries collapse onto
		// the execute end (zero-width phases keep the chain telescoping).
		tDrain, tJournal := tExec, tExec
		var ackHostNS int64
		if e.cfg.DurableAck {
			hasWrite := false
			for _, req := range live {
				if req.Op != OpGet {
					hasWrite = true
					break
				}
			}
			if hasWrite {
				// The durable-ack barrier, split so the drain and journal
				// halves stamp separately: WPQ entries onto simulated
				// media first, then the journal batch onto the host file.
				barrier := time.Now()
				e.st.DrainMedia(th)
				drainEnd := th.Now()
				ferr := e.st.FlushJournal()
				ackHostNS = time.Since(barrier).Nanoseconds()
				if e.tracer != nil {
					tDrain, tJournal = e.tracer.now(drainEnd), e.tracer.now(th.Now())
				}
				if ferr != nil {
					for _, req := range live {
						if req.Op != OpGet && req.Err == nil {
							req.Err = ErrDurable
						}
					}
				}
			}
		}
		end := th.Now()
		s.lastVT.Store(end)
		var maxLat int64
		s.statsMu.Lock()
		for _, req := range live {
			lat := end - req.EnqVT
			if lat > maxLat {
				maxLat = lat
			}
			if !req.Warmup {
				s.latency.Record(lat)
			}
		}
		s.executed += int64(len(live))
		s.batchSizes.Record(int64(len(live)))
		if ackHostNS > 0 {
			s.ackLat.Record(ackHostNS)
		}
		s.statsMu.Unlock()
		if e.tracer != nil {
			tEnd := e.tracer.now(end)
			for _, req := range live {
				if req.Trace == nil {
					continue
				}
				req.Trace.Stamp(4, tExec)
				req.Trace.Stamp(5, tDrain)
				req.Trace.Stamp(6, tJournal)
				req.Trace.Stamp(7, tEnd)
				e.tracer.finish(req.Trace)
			}
		}
		for _, req := range live {
			e.recordFlight(req, end)
			finish(req)
		}
		if s.ctrl != nil {
			s.ctrl.observeBatch(len(live), maxLat)
		}
		e.met.Add(metrics.CtrSrvBatches, 1)
		e.met.Add(metrics.CtrSrvBatchedOps, int64(len(live)))
	}
	if e.rec.Tracing() {
		e.rec.CountShared(obs.TrackServerQueue, th.Now(), float64(e.queued.Load()))
	}
}

// recordFlight publishes one completed request into the flight ring
// (nil flight: one branch and out).
func (e *Executor) recordFlight(req *Request, doneVT int64) {
	if e.flight == nil {
		return
	}
	e.flight.Record(FlightRecord{
		Op:     uint8(req.Op),
		Shard:  uint16(e.ShardOf(req.Key)),
		Shed:   req.Shed,
		Err:    req.Err != nil,
		EnqVT:  req.EnqVT,
		DoneVT: doneVT,
		LatNS:  doneVT - req.EnqVT,
	})
}

// ShardVT returns shard i's last observed virtual timestamp.
func (e *Executor) ShardVT(i int) int64 { return e.shards[i].lastVT.Load() }

// LastVT returns the latest shard clock. After a drain it is the run's
// virtual end — and the instant a simulated power failure must be
// taken at (Store.Crash), since Crash replays the device only up to it.
func (e *Executor) LastVT() int64 {
	var vt int64
	for _, s := range e.shards {
		vt = max(vt, s.lastVT.Load())
	}
	return vt
}

// NumShards reports the executor's shard count.
func (e *Executor) NumShards() int { return len(e.shards) }

// CtrlTraceFNV folds every shard's controller trace (empty unless
// Ctrl.Trace was set), in shard order, into one hash — the
// determinism fingerprint loadsim pins. Call only when the workers are
// quiescent.
func (e *Executor) CtrlTraceFNV() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range e.shards {
		var trace []CtrlStep
		if s.ctrl != nil {
			trace = s.ctrl.trace
		}
		sum := TraceFNV(trace)
		for j := range b {
			b[j] = byte(sum >> (8 * j))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// InputsDone tells the workers no further Submit will arrive; each
// exits once its queue is empty. Used by loadsim, where the run ends
// when the generated arrivals are all served.
func (e *Executor) InputsDone() { e.inputsDone.Store(true) }

// Drain stops admission, waits for the workers to finish what is
// queued, and completes any leftover requests with ErrDraining. After
// Drain the machine's worker threads are detached; the store can be
// crashed and saved.
func (e *Executor) Drain() {
	e.draining.Store(true)
	e.inputsDone.Store(true)
	e.wg.Wait()
	// The workers exit when they see an empty queue, but a Submit
	// racing with shutdown can land an entry after that look; sweep it.
	for _, s := range e.shards {
		var leftover []*Request
		s.popLive(e, 1<<31-1, 0, -1, &leftover)
		for _, req := range leftover {
			req.Err = ErrDraining
			e.recordFlight(req, req.EnqVT)
			finish(req)
		}
	}
}

// ShardStats is one shard's live operating point.
type ShardStats struct {
	Shard      int   `json:"shard"`
	QueueDepth int   `json:"queue_depth"`
	Shed       int64 `json:"shed"` // deadline sheds at pop time
	// BatchCap and WindowNS are the controller's operating point under
	// Adaptive, the static configuration otherwise.
	BatchCap  int   `json:"batch_cap"`
	WindowNS  int64 `json:"window_ns"`
	CtrlSteps int64 `json:"ctrl_steps"` // 0 when static
}

// ExecStats is a point-in-time roll-up across shards.
type ExecStats struct {
	Executed   int64
	Shed       int64
	Queued     int64           // live queued-request count across shards
	CtrlSteps  int64           // controller evaluations (0 when static)
	Shards     []ShardStats    // per-shard operating points, in shard order
	Latency    stats.Histogram // merged enqueue→completion latency
	BatchSizes stats.Histogram
	AckBarrier stats.Histogram // durable-ack barrier host-time latency
}

// Stats merges the per-shard accounting. Safe to call while the
// workers run — the queues and histograms are read under each shard's
// mutexes, so the live stats surfaces get a consistent roll-up —
// though a mid-run snapshot is of course a moving target.
func (e *Executor) Stats() ExecStats {
	out := ExecStats{Queued: e.queued.Load(), Shards: make([]ShardStats, len(e.shards))}
	for i, s := range e.shards {
		ss := ShardStats{Shard: i, Shed: s.shed.Load(), BatchCap: e.cfg.MaxBatch, WindowNS: e.cfg.BatchWindowNS}
		if s.ctrl != nil {
			ss.BatchCap, ss.WindowNS = s.ctrl.params()
			ss.CtrlSteps = s.ctrl.steps.Load()
		}
		s.mu.Lock()
		ss.QueueDepth = len(s.queue) - s.head
		s.mu.Unlock()
		out.Shards[i] = ss
		out.Shed += ss.Shed
		out.CtrlSteps += ss.CtrlSteps
		s.statsMu.Lock()
		out.Executed += s.executed
		out.Latency.Merge(&s.latency)
		out.BatchSizes.Merge(&s.batchSizes)
		out.AckBarrier.Merge(&s.ackLat)
		s.statsMu.Unlock()
	}
	return out
}
