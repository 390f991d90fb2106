package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"goptm/internal/metrics"
	"goptm/internal/stats"
)

// The telemetry plane is an opt-in localhost HTTP listener that makes
// a running ptmserve observable without stopping it: the machine's
// counter registry plus the serving layer's live gauges and latency
// summaries, in two formats from one Snapshot —
//
//   GET /metrics  — Prometheus text exposition (scrapable);
//   GET /snapshot — the same state as one JSON document;
//   GET /healthz  — liveness.
//
// It is deliberately not a management surface: read-only, loopback
// only, off by default. StartTelemetry refuses any non-loopback bind
// address so a stray flag can never expose counters to the network.

// Telemetry is a running telemetry listener.
type Telemetry struct {
	srv  *http.Server
	ln   net.Listener
	wg   sync.WaitGroup
	addr string
}

// Snapshot is the serving layer's one live-state document: the
// machine's counter registry, the executor's roll-up (ExecStats), the
// journal-flush histogram and the flight-recorder sequence. TakeSnapshot
// is its only assembler; memcached stats, /metrics, /snapshot (its JSON
// form) and the flight recorder's counter samples all render from it,
// so the surfaces cannot disagree about a shared key.
type Snapshot struct {
	WallNS     int64            `json:"wall_ns"`
	Counters   map[string]int64 `json:"counters"`
	QueueDepth int64            `json:"queue_depth"`
	Shards     []ShardStats     `json:"shards"`

	Latency      *stats.Histogram `json:"latency_ns"`
	BatchSizes   *stats.Histogram `json:"batch_sizes"`
	AckBarrier   *stats.Histogram `json:"ack_barrier_ns"`
	JournalFlush *stats.Histogram `json:"journal_flush_ns"`

	FlightSeq uint64 `json:"flight_seq"` // 0 when no flight recorder
}

// TakeSnapshot assembles the live state of st, exec and flight (nil
// when there is no flight recorder). Safe while the workers run.
func TakeSnapshot(st *Store, exec *Executor, flight *FlightRecorder) Snapshot {
	es := exec.Stats()
	flush := st.JournalFlushStats()
	snap := Snapshot{
		WallNS:       time.Now().UnixNano(),
		Counters:     make(map[string]int64, metrics.NumCounters),
		QueueDepth:   es.Queued,
		Shards:       es.Shards,
		Latency:      &es.Latency,
		BatchSizes:   &es.BatchSizes,
		AckBarrier:   &es.AckBarrier,
		JournalFlush: &flush,
		FlightSeq:    flight.Seq(),
	}
	met := st.tm.Metrics()
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		snap.Counters[c.String()] = met.Get(c)
	}
	return snap
}

// counter reads one registry counter from the snapshot.
func (snap Snapshot) counter(c metrics.Counter) int64 { return snap.Counters[c.String()] }

// FlightSample renders the snapshot as one flight-recorder counter
// observation; zero counters are left out to keep the sidecar small.
func (snap Snapshot) FlightSample() FlightSample {
	ctrs := make(map[string]int64, len(snap.Counters))
	for name, v := range snap.Counters {
		if v != 0 {
			ctrs[name] = v
		}
	}
	return FlightSample{WallNS: snap.WallNS, QueueDepth: snap.QueueDepth, Counters: ctrs}
}

// writeProm renders the snapshot in the Prometheus text exposition
// format, metric families in sorted name order (the CI smoke parses
// every line).
func writeProm(w *strings.Builder, snap Snapshot) {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := "goptm_" + name + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", fam, fam, snap.Counters[name])
	}
	fmt.Fprintf(w, "# TYPE goptm_srv_queue_depth gauge\ngoptm_srv_queue_depth %d\n", snap.QueueDepth)
	promShardGauge(w, "goptm_srv_shard_batch_cap", snap.Shards, func(s ShardStats) int64 { return int64(s.BatchCap) })
	promShardGauge(w, "goptm_srv_shard_ctrl_steps", snap.Shards, func(s ShardStats) int64 { return s.CtrlSteps })
	promShardGauge(w, "goptm_srv_shard_queue_depth", snap.Shards, func(s ShardStats) int64 { return int64(s.QueueDepth) })
	promShardGauge(w, "goptm_srv_shard_shed", snap.Shards, func(s ShardStats) int64 { return s.Shed })
	promShardGauge(w, "goptm_srv_shard_window_ns", snap.Shards, func(s ShardStats) int64 { return s.WindowNS })
	promSummary(w, "goptm_srv_ack_barrier_ns", snap.AckBarrier)
	promSummary(w, "goptm_srv_batch_size", snap.BatchSizes)
	promSummary(w, "goptm_srv_journal_flush_ns", snap.JournalFlush)
	promSummary(w, "goptm_srv_request_latency_ns", snap.Latency)
}

func promShardGauge(w *strings.Builder, fam string, shards []ShardStats, get func(ShardStats) int64) {
	fmt.Fprintf(w, "# TYPE %s gauge\n", fam)
	for _, s := range shards {
		fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", fam, s.Shard, get(s))
	}
}

var promQuantiles = []struct {
	label string
	p     float64
}{{"0.5", 50}, {"0.9", 90}, {"0.99", 99}, {"0.999", 99.9}}

func promSummary(w *strings.Builder, fam string, h *stats.Histogram) {
	fmt.Fprintf(w, "# TYPE %s summary\n", fam)
	for _, q := range promQuantiles {
		fmt.Fprintf(w, "%s{quantile=\"%s\"} %d\n", fam, q.label, h.Percentile(q.p))
	}
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", fam, h.Sum(), fam, h.Count())
}

// StartTelemetry binds the telemetry listener at addr (host defaults
// to 127.0.0.1; the host must resolve to a loopback address) and
// serves until Close.
func StartTelemetry(addr string, st *Store, exec *Executor, flight *FlightRecorder) (*Telemetry, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad address %q: %w", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	if !isLoopbackHost(host) {
		return nil, fmt.Errorf("telemetry: refusing non-loopback bind %q (the endpoint is localhost-only)", addr)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
	if err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		writeProm(&b, TakeSnapshot(st, exec, flight))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(TakeSnapshot(st, exec, flight))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})

	t := &Telemetry{
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
		addr: ln.Addr().String(),
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.srv.Serve(ln)
	}()
	return t, nil
}

// isLoopbackHost accepts "localhost" and literal loopback IPs.
func isLoopbackHost(host string) bool {
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// Addr reports the bound address (useful with port 0).
func (t *Telemetry) Addr() string {
	if t == nil {
		return ""
	}
	return t.addr
}

// Close shuts the listener down and waits for the serve goroutine —
// the SIGTERM path runs it after the final flight-recorder dump, and
// the shutdown test asserts no goroutine survives it.
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	t.srv.Close()
	t.wg.Wait()
}
