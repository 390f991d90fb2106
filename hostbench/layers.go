package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/harness"
	"goptm/internal/metrics"
	"goptm/internal/perfbench"
	"goptm/internal/server"
)

// The traced run gives the per-layer numbers. It runs the workload's
// server twice — untraced, then with ptmserve's -telemetry and -trace
// on — and reports the traced window's /snapshot counter deltas, the
// request-span phase means and the throughput lost to tracing. It
// then times calls into each layer's public functions in process:
// the executor, one PTM thread on a private durable store, the
// persistence barrier, the simulator's op path and lockstep handoff,
// and every quick Figure-4 cell through harness.Run. sim-fig4 has no
// server, so its server layers are measured on the durable-mix shape.

// probeWindow is the timed length of each in-process probe.
const probeWindow = 4 * time.Second

// tracedWindow caps the traced run's two server windows, so that they
// and the probes end well inside the three minutes a run may take.
const tracedWindow = 20 * time.Second

// kvRun is one window of client load against a fresh server.
type kvRun struct {
	m          measured
	snap0      snapshot
	snap1      snapshot
	walBytes   float64
	phaseMeans map[string]float64 // request-span phase -> mean µs
}

// kvWindow sets up, loads and verifies one server. When traced, the
// server exports telemetry and request spans, and /snapshot plus the
// journal size are read at the window edges.
func (b *bench) kvWindow(spec kvSpec, traced bool, parent int) (kvRun, error) {
	var out kvRun
	name := "plain-window"
	if traced {
		name = "traced-window"
	}
	id, end := b.spans.begin(parent, name)
	defer end()
	ks := newKeyspace(b.seed, spec.keys)
	s, _, err := b.setUp(spec, ks, traced, id)
	if err != nil {
		return out, err
	}
	var wal0, wal1 float64
	var edgeErr error
	var edge func(start bool)
	if traced {
		edge = func(start bool) {
			ctx, cancel := context.WithTimeout(b.ctx, 10*time.Second)
			defer cancel()
			snap, err := s.snapshot(ctx)
			size, serr := fileSize(server.WALPath(s.image))
			if err = errors.Join(err, serr); err != nil && edgeErr == nil {
				edgeErr = err
			}
			if start {
				out.snap0, wal0 = snap, size
			} else {
				out.snap1, wal1 = snap, size
			}
		}
	}
	out.m, err = b.load(s, spec, ks, id, edge)
	if err == nil {
		err = edgeErr
	}
	if err == nil {
		err = b.readBack(s, ks, id)
	}
	if err != nil {
		return out, err
	}
	if err := b.shutDown(s); err != nil {
		return out, err
	}
	out.walBytes = wal1 - wal0
	if traced {
		lo := int64(out.snap0.Counters["srv_requests"])
		hi := int64(out.snap1.Counters["srv_requests"])
		out.phaseMeans, err = requestPhaseMeans(filepath.Join(s.dir, "requests.json"), lo, hi)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// requestPhaseMeans reads ptmserve's request-span export and returns
// the mean duration in µs of each lifecycle phase, over the sampled
// requests whose arrival index lies in [lo, hi) — the timed window.
func requestPhaseMeans(path string, lo, hi int64) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read request spans: %w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"`
			Args struct {
				Req int64 `json:"req"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse request spans: %w", err)
	}
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "req" || ev.Args.Req < lo || ev.Args.Req >= hi {
			continue
		}
		sum[ev.Name] += ev.Dur
		n[ev.Name]++
	}
	if n["req-parse"] == 0 {
		return nil, fmt.Errorf("no sampled request spans in the timed window")
	}
	out := map[string]float64{}
	for name := range sum {
		out[name] = sum[name] / n[name]
	}
	return out, nil
}

// ptmserve's store and executor defaults, without its flight
// recorder, which the in-process probes mirror. Every server start
// checks them against the configuration ptmserve reports.
var (
	storeDefaults = server.StoreConfig{Algo: core.OrecLazy, Domain: durability.ADR, Shards: 4, MaxBatch: 8}
	execDefaults  = server.ExecConfig{Shards: 4, QueueDepth: 256, MaxBatch: 8, BatchWindowNS: 2000,
		DeadlineNS: 1_000_000, IdleSleep: 50 * time.Microsecond}
)

// probeConfig renders the probes' configuration as ptmserve's
// "serving on" line ends: "(redo/ADR, 4 shards, batch<=8, static)".
// The line does not show the window, deadline, queue depth or idle
// sleep, so those are not checked.
func probeConfig() string {
	return fmt.Sprintf("(%s/%s, %d shards, batch<=%d, static)",
		storeDefaults.Algo, storeDefaults.Domain, execDefaults.Shards, execDefaults.MaxBatch)
}

// execResult is the in-process executor probe.
type execResult struct {
	ops                 int64
	seconds             float64
	lat                 []int64
	mallocs, allocBytes float64
	vnsPerHostS         float64
}

// execProbe drives Executor.Submit -> Done directly, without TCP, with
// the workload's mix and its total number of outstanding requests.
func (b *bench) execProbe(spec kvSpec, parent int) (execResult, error) {
	var out execResult
	id, end := b.spans.begin(parent, "probe.executor")
	defer end()
	dir, err := b.freshDir("exec")
	if err != nil {
		return out, err
	}
	st, err := server.OpenDurable(filepath.Join(dir, "kv.img"), storeDefaults)
	if err != nil {
		return out, err
	}
	cfg := execDefaults
	cfg.DurableAck = true
	ex := server.NewExecutor(st, cfg)
	ks := newKeyspace(b.seed, spec.keys)

	// A worker keeps one request outstanding and owns the keys
	// k = w (mod workers) of its group, so a get must return the value
	// of the worker's own last set.
	type worker struct {
		val, want []byte
		lat       []int64
		calls     [][2]time.Time // start and end of each timed request
		res       phaseResult
	}
	var measuring, measured, stop atomic.Bool
	do := func(me *worker, kind opKind, k int) {
		req := &server.Request{Key: ks.names[k], Done: make(chan struct{})}
		ver := ks.sent[k]
		if kind == opSet {
			ver++
			ks.sent[k] = ver
			me.val = ks.value(k, ver, me.val) // free again once Done closes
			req.Op, req.Value = server.OpSet, me.val
		}
		me.res.attempted++
		t0 := time.Now()
		if !ex.Submit(req) {
			me.res.fail("executor refused %s", ks.names[k])
			return
		}
		<-req.Done
		t1 := time.Now()
		switch {
		case req.Shed || req.Err != nil:
			me.res.fail("%s: shed=%v err=%v", ks.names[k], req.Shed, req.Err)
			return
		case kind == opGet:
			me.want = ks.value(k, ver, me.want)
			if !req.Found || !bytes.Equal(req.Val, me.want) {
				me.res.fail("get %s: value differs from version %d", ks.names[k], ver)
				return
			}
		}
		if measuring.Load() && !measured.Load() {
			me.lat = append(me.lat, t1.Sub(t0).Nanoseconds())
			me.calls = append(me.calls, [2]time.Time{t0, t1})
		}
	}
	// Prepopulate through the bulk shape, as the KV runs do; then load
	// with the workload's own number of outstanding requests.
	bulk := make([]worker, bulkConns*bulkDepth)
	var wg sync.WaitGroup
	for w := range bulk {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(ks.names); k += len(bulk) {
				do(&bulk[w], opSet, k)
			}
		}(w)
	}
	wg.Wait()
	ws := make([]worker, spec.conns*spec.depth)
	for w := range ws {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := mix(ks, len(ws), spec.setPct, b.seed)(w)
			for !stop.Load() {
				kind, k, _ := src()
				do(&ws[w], kind, k)
			}
		}(w)
	}
	var before, after runtime.MemStats
	time.Sleep(warmup)
	vt0 := maxShardVT(ex)
	runtime.ReadMemStats(&before)
	mark, err := markHost()
	if err != nil {
		return out, err
	}
	measuring.Store(true)
	time.Sleep(probeWindow)
	measured.Store(true)
	seconds, share, err := mark.since()
	if err != nil {
		return out, err
	}
	runtime.ReadMemStats(&after)
	vt1 := maxShardVT(ex)
	stop.Store(true)
	wg.Wait()
	ex.Drain()
	st.FinishJournal()
	os.RemoveAll(dir)

	out.seconds = seconds
	for i := range bulk {
		b.tally.add(bulk[i].res)
	}
	for i := range ws {
		b.tally.add(ws[i].res)
		for _, ns := range ws[i].lat {
			out.lat = append(out.lat, int64(float64(ns)*share))
		}
		for _, c := range ws[i].calls {
			b.spans.add(id, "Executor.Submit->Done", c[0], c[1])
		}
	}
	out.ops = int64(len(out.lat))
	out.mallocs = ratio(float64(after.Mallocs-before.Mallocs), float64(out.ops))
	out.allocBytes = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(out.ops))
	out.vnsPerHostS = float64(vt1-vt0) / out.seconds
	return out, nil
}

func maxShardVT(ex *server.Executor) int64 {
	var vt int64
	for i := 0; i < ex.NumShards(); i++ {
		if t := ex.ShardVT(i); t > vt {
			vt = t
		}
	}
	return vt
}

// ptmResult is the PTM and persistence probe on one thread.
type ptmResult struct {
	writeCtr, readCtr        counterDelta // device counters over each phase
	writeHostNS, readHostNS  []int64      // per transaction
	writeVNS, readVNS        []int64      // per transaction, virtual ns
	drainHostNS, flushHostNS []int64
}

// ptmProbe times th.Atomic over batches of KV.Set and KV.Get on a
// private durable store with no executor, then the two halves of the
// durable-ack barrier, Store.DrainMedia and Store.FlushJournal, after
// every write transaction. The store carries the device counter model,
// which ptmserve leaves off, so the media and WPQ counters count.
func (b *bench) ptmProbe(keys, batch int, parent int) (ptmResult, error) {
	var out ptmResult
	id, end := b.spans.begin(parent, "probe.ptm")
	defer end()
	dir, err := b.freshDir("ptm")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	cfg := storeDefaults
	cfg.Metrics = metrics.New(metrics.Config{})
	st, err := server.OpenDurable(filepath.Join(dir, "kv.img"), cfg)
	if err != nil {
		return out, err
	}
	reg := st.TM().Metrics()
	defer st.FinishJournal()
	th := st.TM().Thread(0)
	defer th.Detach()
	kv := st.KV()
	ks := newKeyspace(b.seed, keys)
	x := splitmix64(b.seed)
	pick := make([]int, batch)
	vals := make([][]byte, batch)
	got := make([][]byte, batch)

	write := func(keysOf func(i int) int, timed bool) error {
		for i := range pick {
			k := keysOf(i)
			pick[i] = k
			ks.sent[k]++
			vals[i] = ks.value(k, ks.sent[k], vals[i])
		}
		var setErr error
		t0, v0 := time.Now(), th.Now()
		th.Atomic(func(tx *core.Tx) {
			setErr = nil
			for i, k := range pick {
				if err := kv.Set(tx, ks.names[k], vals[i], 0); err != nil {
					setErr = err
				}
			}
		})
		t1, v1 := time.Now(), th.Now()
		st.DrainMedia(th)
		t2 := time.Now()
		flushErr := st.FlushJournal()
		t3 := time.Now()
		if err := errors.Join(setErr, flushErr); err != nil {
			return err
		}
		if timed {
			out.writeHostNS = append(out.writeHostNS, t1.Sub(t0).Nanoseconds())
			out.writeVNS = append(out.writeVNS, v1-v0)
			out.drainHostNS = append(out.drainHostNS, t2.Sub(t1).Nanoseconds())
			out.flushHostNS = append(out.flushHostNS, t3.Sub(t2).Nanoseconds())
			b.spans.add(id, "Thread.Atomic(KV.Set)", t0, t1)
			b.spans.add(id, "Store.DrainMedia", t1, t2)
			b.spans.add(id, "Store.FlushJournal", t2, t3)
		}
		return nil
	}
	for k0 := 0; k0 < keys; k0 += batch {
		if err := write(func(i int) int { return (k0 + i) % keys }, false); err != nil {
			return out, err
		}
	}
	random := func(int) int { x = splitmix64(x); return int(x % uint64(keys)) }
	half := probeWindow / 2
	c0 := readCounters(reg)
	for deadline := time.Now().Add(half); time.Now().Before(deadline); {
		if err := write(random, true); err != nil {
			return out, err
		}
	}
	c1 := readCounters(reg)
	out.writeCtr = c1.since(c0)
	for deadline := time.Now().Add(half); time.Now().Before(deadline); {
		for i := range pick {
			pick[i] = random(i)
		}
		found := make([]bool, batch)
		t0, v0 := time.Now(), th.Now()
		th.Atomic(func(tx *core.Tx) {
			for i, k := range pick {
				got[i], _, found[i] = kv.Get(tx, ks.names[k])
			}
		})
		t1, v1 := time.Now(), th.Now()
		out.readHostNS = append(out.readHostNS, t1.Sub(t0).Nanoseconds())
		out.readVNS = append(out.readVNS, v1-v0)
		b.spans.add(id, "Thread.Atomic(KV.Get)", t0, t1)
		for i, k := range pick {
			var failed int64
			if !found[i] || !bytes.Equal(got[i], ks.value(k, ks.sent[k], vals[0])) {
				failed = 1
			}
			b.tally.check(1, failed, fmt.Sprintf("PTM probe get %s: value differs from version %d", ks.names[k], ks.sent[k]))
		}
	}
	out.readCtr = readCounters(reg).since(c1)
	return out, nil
}

// counterDelta is the part of the counter registry the probes read.
type counterDelta struct{ commits, mediaRead, mediaWrite, wpqStallNS float64 }

func readCounters(reg *metrics.Registry) counterDelta {
	return counterDelta{
		commits:    float64(reg.Get(metrics.CtrCommits)),
		mediaRead:  float64(reg.Get(metrics.CtrMediaReadXPLines)),
		mediaWrite: float64(reg.Get(metrics.CtrMediaWriteXPLines)),
		wpqStallNS: float64(reg.Get(metrics.CtrWPQStallNS)),
	}
}

func (c counterDelta) since(o counterDelta) counterDelta {
	return counterDelta{c.commits - o.commits, c.mediaRead - o.mediaRead, c.mediaWrite - o.mediaWrite, c.wpqStallNS - o.wpqStallNS}
}

// harnessProbe runs every quick Figure-4 cell through harness.Run,
// checks each against the pinned reference and returns the mean wall
// milliseconds per thread count and the virtual commits per host
// second.
func (b *bench) harnessProbe(parent int, m metricSet) error {
	id, end := b.spans.begin(parent, "probe.harness")
	defer end()
	ref, err := b.reference()
	if err != nil {
		return err
	}
	p := harness.QuickParams()
	wl := harness.TATPWorkload()
	var got []refCell
	wallMS := map[int][]float64{}
	var commits int64
	var wall time.Duration
	for _, cell := range harness.Fig34Cells() {
		for _, n := range p.Threads {
			rc := harness.RunConfig{Threads: n, WarmupNS: p.WarmupNS, MeasureNS: p.MeasureNS, Lockstep: true}
			t0 := time.Now()
			r, err := harness.Run(cell, rc, wl.Make(p))
			t1 := time.Now()
			if err != nil {
				return err
			}
			b.spans.add(id, fmt.Sprintf("harness.Run %s @%d", cell.Label(), n), t0, t1)
			wallMS[n] = append(wallMS[n], float64(t1.Sub(t0).Nanoseconds())/1e6)
			wall += t1.Sub(t0)
			commits += r.Commits
			// The same columns ptmbench writes to its CSV.
			cols := []string{"Figure 4", wl.Name, cell.Label(), strconv.Itoa(n),
				strconv.FormatFloat(r.ThroughputOps, 'f', 0, 64),
				strconv.FormatInt(r.Commits, 10), strconv.FormatInt(r.Aborts, 10),
				strconv.FormatFloat(r.CommitsPerAbort, 'f', 2, 64),
				strconv.FormatInt(r.Latency.P50(), 10), strconv.FormatInt(r.Latency.P99(), 10)}
			got = append(got, refCell{key: cell.Label() + "@" + strconv.Itoa(n), cols: strings.Join(cols, ",")})
		}
	}
	b.checkCells(got, ref, "harness.Run")
	for _, n := range p.Threads {
		var sum float64
		for _, w := range wallMS[n] {
			sum += w
		}
		m.set(fmt.Sprintf("harness.cell_wall_ms.t%d", n), sum/float64(len(wallMS[n])), "ms")
	}
	m.set("harness.vcommits_per_host_s", float64(commits)/wall.Seconds(), "1/s")
	return nil
}

// simProbe times the simulator's op path and lockstep handoff through
// internal/perfbench, reporting the median of several calls.
func (b *bench) simProbe(parent int, m metricSet) {
	id, end := b.spans.begin(parent, "probe.sim")
	defer end()
	var op, hand []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		op = append(op, perfbench.OpPath(200_000))
		b.spans.add(id, "perfbench.OpPath", t0, time.Now())
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		hand = append(hand, perfbench.Handoff(32, 3000))
		b.spans.add(id, "perfbench.Handoff", t0, time.Now())
	}
	m.set("membus.op_host_ns", median(op), "ns")
	m.set("simtime.handoffs_per_s", median(hand), "1/s")
}

// runLayers is the traced run: every per-layer metric and the tracing
// overhead.
func (b *bench) runLayers(workload string, spec kvSpec, isKV bool) (metricSet, error) {
	root, end := b.spans.begin(0, "run")
	defer end()
	if !isKV {
		spec = kvSpecs["durable-mix"]
	}
	b.seconds = min(b.seconds, tracedWindow)
	m := metricSet{}
	plain, err := b.kvWindow(spec, false, root)
	if err != nil {
		return nil, err
	}
	tr, err := b.kvWindow(spec, true, root)
	if err != nil {
		return nil, err
	}
	plainTput := float64(plain.m.res.done) / plain.m.seconds
	tracedTput := float64(tr.m.res.done) / tr.m.seconds
	m.set("trace.overhead_pct", 100*(plainTput-tracedTput)/plainTput, "%")

	c0, c1 := tr.snap0.Counters, tr.snap1.Counters
	d := func(name string) float64 { return c1[name] - c0[name] }
	batches, ops, commits := d("srv_batches"), d("srv_batched_ops"), d("commits")
	m.set("exec.ops_per_batch", ratio(ops, batches), "count")
	m.set("exec.shed_ratio", ratio(d("srv_shed"), d("srv_requests")), "ratio")
	m.set("exec.host_per_virtual", ratio(mean(tr.m.res.all)*tr.m.share, tr.snap1.Latency.meanSince(tr.snap0.Latency)), "ratio")
	m.set("ptm.abort_ratio", ratio(d("aborts"), commits+d("aborts")), "ratio")
	m.set("ptm.log_bytes_per_commit", ratio(d("log_bytes"), commits), "B")
	m.set("persist.ack_barrier_mean_us", tr.snap1.Ack.meanSince(tr.snap0.Ack)/1e3, "us")
	m.set("persist.journal_flush_mean_us", tr.snap1.Flush.meanSince(tr.snap0.Flush)/1e3, "us")
	m.set("persist.wal_bytes_per_set", ratio(tr.walBytes, float64(len(tr.m.res.set))), "B")
	for _, ph := range []string{"parse", "queue", "batch", "execute", "drain", "journal", "ack"} {
		m.set("span."+ph+"_us", tr.phaseMeans["req-"+ph], "us")
	}

	// The in-process probes share this process's heap: collect the
	// previous probe's garbage so it does not bill the next one.
	runtime.GC()
	ex, err := b.execProbe(spec, root)
	if err != nil {
		return nil, err
	}
	execP50 := percentile(ex.lat, 50) / 1e3
	m.set("exec.throughput_ops_s", float64(ex.ops)/ex.seconds, "1/s")
	m.set("exec.p50_us", execP50, "us")
	m.set("exec.p99_us", percentile(ex.lat, 99)/1e3, "us")
	m.set("tcp.rtt_minus_exec_p50_us", percentile(plain.m.res.all, 50)*plain.m.share/1e3-execP50, "us")
	m.set("exec.mallocs_per_op", ex.mallocs, "count")
	m.set("exec.alloc_bytes_per_op", ex.allocBytes, "B")
	m.set("simtime.vns_per_host_s", ex.vnsPerHostS, "ns/s")

	batch := int(math.Round(ratio(ops, batches)))
	if batch < 1 {
		batch = 1
	}
	runtime.GC()
	pt, err := b.ptmProbe(spec.keys, batch, root)
	if err != nil {
		return nil, err
	}
	m.set("ptm.write_txn_host_us", mean(pt.writeHostNS)/1e3, "us")
	m.set("ptm.read_txn_host_us", mean(pt.readHostNS)/1e3, "us")
	m.set("ptm.write_txn_vns", mean(pt.writeVNS), "ns")
	m.set("ptm.read_txn_vns", mean(pt.readVNS), "ns")
	m.set("persist.drain_host_us", mean(pt.drainHostNS)/1e3, "us")
	m.set("persist.flush_host_us", mean(pt.flushHostNS)/1e3, "us")
	m.set("wpq.stall_vns_per_commit", ratio(pt.writeCtr.wpqStallNS, pt.writeCtr.commits), "ns")
	m.set("media.write_xplines_per_op", ratio(pt.writeCtr.mediaWrite, float64(batch*len(pt.writeHostNS))), "count")
	m.set("media.read_xplines_per_op", ratio(pt.readCtr.mediaRead, float64(batch*len(pt.readHostNS))), "count")

	runtime.GC()
	b.simProbe(root, m)
	runtime.GC()
	if err := b.harnessProbe(root, m); err != nil {
		return nil, err
	}
	return m, nil
}

// snapshot is the part of ptmserve's /snapshot document the traced run
// reads: counters and histogram sums and counts.
type snapshot struct {
	Counters map[string]float64 `json:"counters"`
	Latency  histSum            `json:"latency_ns"`
	Ack      histSum            `json:"ack_barrier_ns"`
	Flush    histSum            `json:"journal_flush_ns"`
}

type histSum struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum_ns"`
}

func (h histSum) meanSince(prev histSum) float64 { return ratio(h.Sum-prev.Sum, h.Count-prev.Count) }

func (s *served) snapshot(ctx context.Context) (snapshot, error) {
	var snap snapshot
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+s.telAddr+"/snapshot", nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, fmt.Errorf("scrape /snapshot: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, fmt.Errorf("scrape /snapshot: %w", err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("scrape /snapshot: %w", err)
	}
	return snap, nil
}

func fileSize(path string) (float64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}
