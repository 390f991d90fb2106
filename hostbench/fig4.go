package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The sim-fig4 workload runs ptmbench's quick Figure-4 sweep (TATP,
// 8 curves x {1,4,16,32} threads, 32 lockstep cells) as a subprocess.
// Its virtual results are deterministic, so every cell is checked
// against the reference pinned in reference/fig4_quick.csv.

const referenceCSV = "hostbench/reference/fig4_quick.csv"

// refCell is one pinned cell: its CSV columns without the latency
// histogram, keyed by "curve@threads".
type refCell struct {
	key  string
	cols string
}

// readCells parses a Figure-4 CSV into cells, dropping any column
// after latency_p99_ns (ptmbench appends the latency histogram).
func readCells(data []byte) ([]refCell, error) {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 || len(rows[0]) < 10 || rows[0][9] != "latency_p99_ns" {
		return nil, fmt.Errorf("unexpected Figure-4 CSV header")
	}
	var cells []refCell
	for _, r := range rows[1:] {
		cells = append(cells, refCell{key: r[2] + "@" + r[3], cols: strings.Join(r[:10], ",")})
	}
	return cells, nil
}

func (b *bench) reference() ([]refCell, error) {
	data, err := os.ReadFile(filepath.Join(b.root, referenceCSV))
	if err != nil {
		return nil, err
	}
	return readCells(data)
}

// commits parses the cell's commits column.
func (c refCell) commits() (int64, error) {
	f := strings.Split(c.cols, ",")
	n, err := strconv.ParseInt(f[5], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cell %s: bad commits %q", c.key, f[5])
	}
	return n, nil
}

// smokeCheck runs the counters smoke report and requires it to be
// byte-identical to results/metrics_smoke_baseline.json, which it only
// reads. It returns the host seconds (wall less steal) from exec to
// exit.
func (b *bench) smokeCheck(parent int) (float64, error) {
	_, end := b.spans.begin(parent, "smoke-check")
	defer end()
	dir, err := b.freshDir("smoke")
	if err != nil {
		return 0, err
	}
	out := filepath.Join(dir, "metrics.json")
	p, err := b.startProc("ptmbench",
		[]string{"-fig", "4", "-smoke", "-counters", "-metricsjson", out}, nil, nil)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(b.ctx, 60*time.Second)
	defer cancel()
	if err := p.wait(ctx); err != nil {
		return 0, err
	}
	took, _, err := p.started.since()
	if err != nil {
		return 0, err
	}
	got, err := os.ReadFile(out)
	if err != nil {
		return 0, err
	}
	want, err := os.ReadFile(filepath.Join(b.root, "results", "metrics_smoke_baseline.json"))
	if err != nil {
		return 0, err
	}
	var differs int64
	if !bytes.Equal(got, want) {
		differs = 1
	}
	b.tally.check(1, differs, "smoke metrics report differs from results/metrics_smoke_baseline.json")
	return took, nil
}

// sweep is one ptmbench quick Figure-4 run.
type sweep struct {
	// cellUS is the host µs of each cell but the first, keyed like
	// refCell: the CPU time ptmbench spent between the arrivals of the
	// cell's progress line and the one before it. The first cell has
	// no line before it, and its interval would include ptmbench's
	// start, so it is not timed.
	cellUS map[string]int64
	cpuS   float64
	rssMB  float64
	cells  []refCell
}

// progressKey turns a ptmbench -v progress line
// ("[ 2/32] tatp DRAM_ADR_U   4 threads: ...") into its cell key.
func progressKey(line string) (string, bool) {
	_, rest, ok := strings.Cut(line, "] tatp ")
	if !ok {
		return "", false
	}
	f := strings.Fields(rest)
	if len(f) < 3 || f[2] != "threads:" {
		return "", false
	}
	return f[0] + "@" + f[1], true
}

func (b *bench) runSweep(parent int) (sweep, error) {
	sw := sweep{cellUS: map[string]int64{}}
	_, end := b.spans.begin(parent, "sweep")
	defer end()
	dir, err := b.freshDir("sweep")
	if err != nil {
		return sw, err
	}
	csvPath := filepath.Join(dir, "fig4.csv")
	var mu sync.Mutex
	var prev int64 = -1
	var cpuErr error
	// With -jobs 1 the sweep runs one simulated thread at a time, so it
	// gets one P: on a host of a few shared CPUs, a second P only adds
	// the Go scheduler's cross-CPU wake-ups to every lockstep handoff.
	p, err := b.startProc("ptmbench",
		[]string{"-fig", "4", "-jobs", "1", "-v", "-csv", csvPath}, []string{"GOMAXPROCS=1"},
		func(p *proc, line string) {
			key, ok := progressKey(line)
			if !ok {
				return
			}
			ns, err := p.cpuNanos()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				cpuErr = errors.Join(cpuErr, err)
				return
			}
			if prev >= 0 {
				sw.cellUS[key] = (ns - prev) / 1e3
			}
			prev = ns
		})
	if err != nil {
		return sw, err
	}
	ctx, cancel := context.WithTimeout(b.ctx, 120*time.Second)
	defer cancel()
	if err := p.wait(ctx); err != nil {
		return sw, err
	}
	if cpuErr != nil {
		return sw, fmt.Errorf("read ptmbench CPU time: %w", cpuErr)
	}
	sw.cpuS, sw.rssMB = p.usage()
	data, err := os.ReadFile(csvPath)
	if err != nil {
		return sw, err
	}
	sw.cells, err = readCells(data)
	return sw, err
}

// checkCells counts cells whose virtual results differ from the
// reference; a missing or extra cell counts as a difference.
func (b *bench) checkCells(got, want []refCell, what string) {
	byKey := map[string]string{}
	for _, c := range got {
		byKey[c.key] = c.cols
	}
	var bad int64
	first := ""
	for _, c := range want {
		if byKey[c.key] != c.cols {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s cell %s: got %q, want %q", what, c.key, byKey[c.key], c.cols)
			}
		}
	}
	if len(got) != len(want) && first == "" {
		bad++
		first = fmt.Sprintf("%s: %d cells, want %d", what, len(got), len(want))
	}
	b.tally.check(int64(len(want)), bad, first)
}

// sweepSeconds is the nominal length of one quick sweep on one P. A run
// makes --seconds / sweepSeconds sweeps (at least one), a count fixed
// by the window alone so that the metrics mean the same on any host.
const sweepSeconds = 10

// runFig4 is the untraced end-to-end run of the sim-fig4 workload. Each
// cell's host time, and the sweep's CPU time and peak RSS, is the
// minimum over the run's sweeps: the sweeps are identical and
// deterministic, so the least disturbed one is closest to the
// program's own cost. The sweep runs on one P and is bound by its CPU,
// so its CPU time is its host time without steal.
func (b *bench) runFig4() (metricSet, error) {
	root, end := b.spans.begin(0, "run")
	defer end()
	ref, err := b.reference()
	if err != nil {
		return nil, err
	}
	commits := map[string]int64{}
	for _, c := range ref {
		n, err := c.commits()
		if err != nil {
			return nil, err
		}
		commits[c.key] = n
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		took, err := b.smokeCheck(root)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	sweeps := max(1, int(b.seconds.Seconds())/sweepSeconds)
	minUS := map[string]int64{}
	cpuMin, rssMin := math.Inf(1), math.Inf(1)
	for i := 0; i < sweeps; i++ {
		sw, err := b.runSweep(root)
		if err != nil {
			return nil, err
		}
		b.checkCells(sw.cells, ref, "sweep")
		if len(sw.cellUS) != len(ref)-1 {
			return nil, fmt.Errorf("sweep timed %d cells from ptmbench -v, want %d", len(sw.cellUS), len(ref)-1)
		}
		for key, us := range sw.cellUS {
			if old, ok := minUS[key]; !ok || us < old {
				minUS[key] = us
			}
		}
		cpuMin = math.Min(cpuMin, sw.cpuS)
		rssMin = math.Min(rssMin, sw.rssMB)
	}
	var timedCommits, timedUS, sweepCommits int64
	var cellsUS []int64
	for key, us := range minUS {
		n, ok := commits[key]
		if !ok {
			return nil, fmt.Errorf("ptmbench -v reported cell %s, which the reference lacks", key)
		}
		timedCommits += n
		timedUS += us
		cellsUS = append(cellsUS, us)
	}
	for _, n := range commits {
		sweepCommits += n
	}
	out := metricSet{}
	out.set("throughput_ops_s", float64(timedCommits)*1e6/float64(timedUS), "1/s")
	p99 := percentile(cellsUS, 99)
	out.set("p50_us", percentile(cellsUS, 50), "us")
	out.set("p99_us", p99, "us")
	// A sweep has one operation type, the cell.
	out.set("get_p99_us", p99, "us")
	out.set("set_p99_us", p99, "us")
	out.set("server_cpu_us_per_op", cpuMin*1e6/float64(sweepCommits), "us")
	out.set("rss_mb", rssMin, "MB")
	out.set("setup_s", median(setups), "s")
	return out, nil
}
