package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// kvSpec is one ptmserve workload: client shape, mix and keyspace.
// Every server runs ptmserve's defaults plus -listen and -image, so it
// is durable: image plus write-ahead journal.
type kvSpec struct {
	conns, depth int
	setPct       int
	keys         int
	restartCheck bool
}

var kvSpecs = map[string]kvSpec{
	"durable-mix":   {conns: 2, depth: 128, setPct: 50, keys: 4096, restartCheck: true},
	"single-client": {conns: 1, depth: 1, setPct: 50, keys: 4096},
}

const (
	setupReps = 5               // set-ups per run; setup_s is their median
	warmup    = 1 * time.Second // untimed, verified load before the window
	// Prepopulation and read-back always use the full pipelined shape.
	bulkConns, bulkDepth = 2, 128
)

// served is a running ptmserve with its client.
type served struct {
	p       *proc
	dir     string
	image   string
	addr    string
	telAddr string
	cl      *client
}

// tally accumulates every operation attempted in a run and every
// failure, with the first failure kept for the report.
type tally struct {
	attempted, failed int64
	firstFailure      string
}

func (t *tally) add(r phaseResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	if t.firstFailure == "" {
		t.firstFailure = r.firstFailure
	}
}

func (t *tally) check(attempted int64, failed int64, what string) {
	t.attempted += attempted
	if failed > 0 {
		t.failed += failed
		if t.firstFailure == "" {
			t.firstFailure = what
		}
	}
}

// bench carries what every workload needs: binaries, work space,
// deadline, seed and the optional span log.
type bench struct {
	ctx     context.Context
	bin     string // directory holding ptmserve and ptmbench
	root    string // checkout root
	work    string // work directory for this run, removed at exit
	seed    uint64
	seconds time.Duration
	spans   *spanLog
	tally   tally
	nextDir int
	procs   []*proc // every child started, for stopAll
}

// stopAll kills and reaps any child still running, so a run that
// fails part-way leaves none behind.
func (b *bench) stopAll() {
	for _, p := range b.procs {
		p.kill()
	}
}

func (b *bench) freshDir(name string) (string, error) {
	b.nextDir++
	dir := filepath.Join(b.work, fmt.Sprintf("%s-%d", name, b.nextDir))
	return dir, os.MkdirAll(dir, 0o755)
}

// startServer execs ptmserve and waits for its "serving on" line.
func (b *bench) startServer(dir string, spec kvSpec, traced bool, image string) (*served, error) {
	s := &served{dir: dir, image: image}
	args := []string{"-listen", "127.0.0.1:0", "-image", image}
	if traced {
		sample := "64"
		if spec.conns*spec.depth == 1 {
			sample = "1" // a closed loop of one yields few requests
		}
		args = append(args, "-telemetry", "127.0.0.1:0", "-trace", filepath.Join(dir, "requests.json"), "-tracesample", sample)
	}
	p, err := b.startProc("ptmserve", args, nil, nil)
	if err != nil {
		return nil, err
	}
	s.p = p
	ctx, cancel := context.WithTimeout(b.ctx, 60*time.Second)
	defer cancel()
	line, err := p.waitLine(ctx, "serving on ")
	if err != nil {
		return nil, err
	}
	s.addr = strings.Fields(strings.SplitN(line, "serving on ", 2)[1])[0]
	if want := probeConfig(); !strings.HasSuffix(line, want) || storeDefaults.Shards != execDefaults.Shards ||
		storeDefaults.MaxBatch != execDefaults.MaxBatch {
		return nil, fmt.Errorf("ptmserve reports %q, but the in-process probes run %s: update storeDefaults and execDefaults", line, want)
	}
	if traced {
		line, err := p.waitLine(ctx, "telemetry on http://")
		if err != nil {
			return nil, err
		}
		s.telAddr = strings.Fields(strings.SplitN(line, "telemetry on http://", 2)[1])[0]
	}
	return s, nil
}

// phase runs one client phase and fails the run on a transport error
// or a server death, reporting the server's stderr tail.
func (b *bench) phase(s *served, cl *client, depth int, src func(int) opSource, win window, stop <-chan struct{}) (phaseResult, error) {
	died := make(chan struct{})
	go func() {
		select {
		case <-s.p.exited:
			cl.close() // unblock the readers
		case <-died:
		}
	}()
	res, err := cl.run(depth, src, win, stop)
	close(died)
	b.tally.add(res)
	if err != nil {
		// A lost connection usually means the server is going down;
		// give it a moment to be reaped so the report says so.
		select {
		case <-s.p.exited:
		case <-time.After(2 * time.Second):
		}
	}
	if !s.p.alive() {
		return res, fmt.Errorf("%v\n(client: %v)", s.p.failure("died during the run"), err)
	}
	if err != nil {
		return res, fmt.Errorf("%w\n%v", err, s.p.failure("is still running"))
	}
	return res, nil
}

// setUp starts a fresh server and prepopulates every key through the
// full pipelined shape. It returns the host seconds (wall less steal)
// from exec to the end of prepopulation.
func (b *bench) setUp(spec kvSpec, ks *keyspace, traced bool, parent int) (*served, float64, error) {
	id, end := b.spans.begin(parent, "setup")
	defer end()
	dir, err := b.freshDir("serve")
	if err != nil {
		return nil, 0, err
	}
	s, err := b.startServer(dir, spec, traced, filepath.Join(dir, "kv.img"))
	if err != nil {
		return nil, 0, err
	}
	cl, err := dial(s.addr, ks, bulkConns)
	if err != nil {
		return nil, 0, err
	}
	_, pend := b.spans.begin(id, "prepopulate")
	_, err = b.phase(s, cl, bulkDepth, sequential(ks, bulkConns, opSet), window{}, nil)
	pend()
	cl.close()
	if err != nil {
		return nil, 0, err
	}
	took, _, err := s.p.started.since()
	if err != nil {
		return nil, 0, err
	}
	s.cl, err = dial(s.addr, ks, spec.conns)
	if err != nil {
		return nil, 0, err
	}
	return s, took, nil
}

// shutDown sends SIGTERM and requires a clean exit that saved the
// image.
func (b *bench) shutDown(s *served) error {
	if s.cl != nil {
		s.cl.close()
	}
	ctx, cancel := context.WithTimeout(b.ctx, 60*time.Second)
	defer cancel()
	if err := s.p.stop(ctx); err != nil {
		return err
	}
	if !strings.Contains(strings.Join(s.p.output(), "\n"), "image saved to") {
		return s.p.failure("exited without \"image saved\"")
	}
	return nil
}

// requireReplay requires a restarted server to have recovered its
// image and replayed at least one journal batch.
func (s *served) requireReplay() error {
	out := s.p.output()
	if !strings.Contains(strings.Join(out, "\n"), "recovered image") {
		return s.p.failure("restarted without recovering its image")
	}
	for _, line := range out {
		var n int
		if _, err := fmt.Sscanf(line, "ptmserve: replayed %d journal batches", &n); err == nil {
			if n == 0 {
				return s.p.failure("restarted without replaying a journal batch")
			}
			return nil
		}
	}
	return s.p.failure("restarted without reporting a journal replay")
}

// measured is one timed window of client load.
type measured struct {
	res         phaseResult
	seconds     float64 // host seconds of the window: wall less steal
	share       float64 // seconds / wall seconds; scales the window's RTTs
	cpuS, rssMB float64
}

// load runs the warmup and then the timed window of the workload's
// mix, reading the server's CPU time, peak RSS and the host clock at
// the window edges.
func (b *bench) load(s *served, spec kvSpec, ks *keyspace, parent int, edge func(start bool)) (measured, error) {
	var m measured
	src := mix(ks, spec.conns, spec.setPct, b.seed)
	stop := make(chan struct{})
	_, wend := b.spans.begin(parent, "warmup")
	timer := time.AfterFunc(warmup, func() { close(stop) })
	_, err := b.phase(s, s.cl, spec.depth, src, window{}, stop)
	timer.Stop()
	wend()
	if err != nil {
		return m, err
	}

	if edge != nil {
		edge(true)
	}
	cpu0, err := s.p.cpuSeconds()
	if err != nil {
		return m, err
	}
	stop = make(chan struct{})
	var cpu1 float64
	var edgeErr error
	mark, err := markHost()
	if err != nil {
		return m, err
	}
	win := window{from: mark.wall, to: mark.wall.Add(b.seconds)}
	timer = time.AfterFunc(b.seconds, func() {
		_, m.share, edgeErr = mark.since()
		if edgeErr == nil {
			cpu1, edgeErr = s.p.cpuSeconds()
		}
		if edgeErr == nil {
			m.rssMB, edgeErr = s.p.peakRSSMB()
		}
		if edge != nil {
			edge(false)
		}
		close(stop)
	})
	_, lend := b.spans.begin(parent, "window")
	m.res, err = b.phase(s, s.cl, spec.depth, src, win, stop)
	lend()
	if err != nil {
		if !timer.Stop() {
			<-stop
		}
		return m, err
	}
	<-stop
	if edgeErr != nil {
		return m, fmt.Errorf("read ptmserve usage: %w", edgeErr)
	}
	m.seconds = b.seconds.Seconds() * m.share
	m.cpuS = cpu1 - cpu0
	return m, nil
}

// readBack gets every key once through the pipelined shape and checks
// it against the key's last acknowledged version.
func (b *bench) readBack(s *served, ks *keyspace, parent int) error {
	for k := range ks.sent {
		if ks.acked[k] != ks.sent[k] {
			b.tally.check(0, 1, fmt.Sprintf("key %s: last set sent v%d, acknowledged v%d", ks.names[k], ks.sent[k], ks.acked[k]))
		}
	}
	cl, err := dial(s.addr, ks, bulkConns)
	if err != nil {
		return err
	}
	defer cl.close()
	_, end := b.spans.begin(parent, "readback")
	defer end()
	_, err = b.phase(s, cl, bulkDepth, sequential(ks, bulkConns, opGet), window{}, nil)
	return err
}

// runKV is the untraced end-to-end run of one ptmserve workload.
func (b *bench) runKV(spec kvSpec) (metricSet, error) {
	root, end := b.spans.begin(0, "run")
	defer end()
	ks := newKeyspace(b.seed, spec.keys)
	var setups []float64
	var s *served
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := b.shutDown(s); err != nil {
				return nil, err
			}
			ks = newKeyspace(b.seed, spec.keys)
		}
		var took float64
		var err error
		s, took, err = b.setUp(spec, ks, false, root)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	m, err := b.load(s, spec, ks, root, nil)
	if err != nil {
		return nil, err
	}
	if spec.restartCheck {
		// Kill the server, so that its image is the one saved at start
		// and every acknowledged write lives only in the journal; the
		// restart must replay the journal and every key must read back
		// its last acknowledged value.
		s.cl.close()
		s.p.kill()
		_, rend := b.spans.begin(root, "restart")
		s2, err := b.startServer(s.dir, spec, false, s.image)
		rend()
		if err != nil {
			return nil, err
		}
		s = s2
		if err := s.requireReplay(); err != nil {
			return nil, err
		}
	}
	if err := b.readBack(s, ks, root); err != nil {
		return nil, err
	}
	if err := b.shutDown(s); err != nil {
		return nil, err
	}

	out := metricSet{}
	r := m.res
	out.set("throughput_ops_s", float64(r.done)/m.seconds, "1/s")
	us := m.share / 1e3 // host µs per wall ns
	out.set("p50_us", percentile(r.all, 50)*us, "us")
	out.set("p99_us", percentile(r.all, 99)*us, "us")
	out.set("get_p99_us", percentile(r.get, 99)*us, "us")
	out.set("set_p99_us", percentile(r.set, 99)*us, "us")
	out.set("server_cpu_us_per_op", ratio(m.cpuS*1e6, float64(r.done)), "us")
	out.set("rss_mb", m.rssMB, "MB")
	out.set("setup_s", median(setups), "s")
	return out, nil
}
