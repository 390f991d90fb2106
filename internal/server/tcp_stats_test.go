package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"goptm/internal/metrics"
)

// staticStats is the complete stats response of a static two-shard
// server after runFixedCommands — the sorted key set, the controller
// gauges at zero, and the per-shard operating points at the static
// configuration (MaxBatch 4, BatchWindowNS 1500). Every key is always
// present, so it is also the schema of any two-shard server.
var staticStats = []string{
	"STAT batched_ops_total 4", "STAT batches_total 4", "STAT cmd_total 4",
	"STAT ctrl_steps 0", "STAT ctrl_steps_down 0", "STAT ctrl_steps_up 0",
	"STAT queue_depth 0",
	"STAT shard0_batch_cap 4", "STAT shard0_ctrl_steps 0", "STAT shard0_queue_depth 0",
	"STAT shard0_shed 0", "STAT shard0_window_ns 1500",
	"STAT shard1_batch_cap 4", "STAT shard1_ctrl_steps 0", "STAT shard1_queue_depth 0",
	"STAT shard1_shed 0", "STAT shard1_window_ns 1500",
	"STAT shed_total 0", "STAT txn_aborts 0", "STAT txn_commits 5",
}

// readStats sends the stats command and parses every response line.
func readStats(t *testing.T, conn net.Conn, r *bufio.Reader) map[string]int64 {
	t.Helper()
	fmt.Fprintf(conn, "stats\r\n")
	got := map[string]int64{}
	var order []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "STAT" {
			t.Fatalf("malformed stats line: %q", line)
		}
		v, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			t.Fatalf("stats value for %s is not an integer: %q", fields[1], fields[2])
		}
		got[fields[1]] = v
		order = append(order, fields[1])
	}
	if !sort.StringsAreSorted(order) {
		t.Fatalf("stats keys not in sorted order: %v", order)
	}
	return got
}

// TestStatsSchemaAdaptive: the same key set under the adaptive
// controller, with live operating points.
func TestStatsSchemaAdaptive(t *testing.T) {
	_, _, conn, r := pipeServer(t, StoreConfig{Shards: 2},
		ExecConfig{DeadlineNS: -1, Adaptive: true, IdleSleep: 20 * time.Microsecond})

	got := readStats(t, conn, r)
	if len(got) != len(staticStats) {
		t.Errorf("stats has %d keys, want %d", len(got), len(staticStats))
	}
	for _, line := range staticStats {
		k := strings.Fields(line)[1]
		if _, ok := got[k]; !ok {
			t.Errorf("stats missing key %s", k)
		}
	}
	for i := 0; i < 2; i++ {
		if v := got[fmt.Sprintf("shard%d_batch_cap", i)]; v <= 0 {
			t.Errorf("shard%d_batch_cap = %d, want positive", i, v)
		}
		if v := got[fmt.Sprintf("shard%d_window_ns", i)]; v < 0 {
			t.Errorf("shard%d_window_ns = %d, want >= 0", i, v)
		}
	}
}

// TestStatsSchemaStatic pins the stats response bytes of a static
// server in one fixed, quiesced state (staticStats): the wire contract
// monitoring clients parse.
func TestStatsSchemaStatic(t *testing.T) {
	_, _, conn, r := pipeServer(t, StoreConfig{Shards: 2},
		ExecConfig{DeadlineNS: -1, MaxBatch: 4, BatchWindowNS: 1500, IdleSleep: 20 * time.Microsecond})
	runFixedCommands(t, conn, r)

	fmt.Fprintf(conn, "stats\r\n")
	var got strings.Builder
	for !strings.HasSuffix(got.String(), "END\r\n") {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(line)
	}
	want := strings.Join(append(staticStats, "END", ""), "\r\n")
	if got.String() != want {
		t.Fatalf("stats response:\n%s\nwant:\n%s", got.String(), want)
	}
}

// runFixedCommands drives set a, set b, get a, delete zz one at a
// time, so each runs as its own batch.
func runFixedCommands(t *testing.T, conn net.Conn, r *bufio.Reader) {
	t.Helper()
	fmt.Fprintf(conn, "set a 0 0 1\r\nx\r\n")
	expectLine(t, r, "STORED")
	fmt.Fprintf(conn, "set b 0 0 1\r\ny\r\n")
	expectLine(t, r, "STORED")
	fmt.Fprintf(conn, "get a\r\n")
	expectLine(t, r, "VALUE a 0 1")
	expectLine(t, r, "x")
	expectLine(t, r, "END")
	fmt.Fprintf(conn, "delete zz\r\n")
	expectLine(t, r, "NOT_FOUND")
}

// TestStatsSurfacesAgree: on one quiesced executor, memcached stats,
// /snapshot and /metrics report the same value for every key they
// share — all three render one Snapshot.
func TestStatsSurfacesAgree(t *testing.T) {
	_, exec, conn, r := pipeServer(t, StoreConfig{Shards: 2},
		ExecConfig{DeadlineNS: -1, MaxBatch: 4, BatchWindowNS: 1500, IdleSleep: 20 * time.Microsecond})
	runFixedCommands(t, conn, r)
	tel, err := StartTelemetry("127.0.0.1:0", exec.st, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()

	stat := readStats(t, conn, r)
	var snap Snapshot
	if err := json.Unmarshal([]byte(httpGet(t, tel.Addr(), "/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	prom := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(httpGet(t, tel.Addr(), "/metrics")), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		prom[line[:i]] = v
	}

	agree := func(what string, vals ...int64) {
		t.Helper()
		for _, v := range vals[1:] {
			if v != vals[0] {
				t.Errorf("%s disagrees across surfaces: %v", what, vals)
				return
			}
		}
	}
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		agree(c.String(), snap.Counters[c.String()], prom["goptm_"+c.String()+"_total"])
	}
	for key, c := range map[string]metrics.Counter{
		"batched_ops_total": metrics.CtrSrvBatchedOps,
		"batches_total":     metrics.CtrSrvBatches,
		"cmd_total":         metrics.CtrSrvRequests,
		"ctrl_steps":        metrics.CtrSrvCtrlSteps,
		"ctrl_steps_down":   metrics.CtrSrvCtrlDown,
		"ctrl_steps_up":     metrics.CtrSrvCtrlUp,
		"shed_total":        metrics.CtrSrvShed,
		"txn_aborts":        metrics.CtrAborts,
		"txn_commits":       metrics.CtrCommits,
	} {
		agree(key, stat[key], snap.Counters[c.String()], prom["goptm_"+c.String()+"_total"])
	}
	agree("queue_depth", stat["queue_depth"], snap.QueueDepth, prom["goptm_srv_queue_depth"])
	if len(snap.Shards) != 2 {
		t.Fatalf("snapshot has %d shards, want 2", len(snap.Shards))
	}
	for _, sh := range snap.Shards {
		for name, v := range map[string]int64{
			"batch_cap":   int64(sh.BatchCap),
			"ctrl_steps":  sh.CtrlSteps,
			"queue_depth": int64(sh.QueueDepth),
			"shed":        sh.Shed,
			"window_ns":   sh.WindowNS,
		} {
			agree(fmt.Sprintf("shard%d_%s", sh.Shard, name), stat[fmt.Sprintf("shard%d_%s", sh.Shard, name)], v,
				prom[fmt.Sprintf(`goptm_srv_shard_%s{shard="%d"}`, name, sh.Shard)])
		}
	}
	agree("latency count", snap.Latency.Count(), prom["goptm_srv_request_latency_ns_count"], stat["batched_ops_total"])
	agree("batch count", snap.BatchSizes.Count(), prom["goptm_srv_batch_size_count"], stat["batches_total"])
}
