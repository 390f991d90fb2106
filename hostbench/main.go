// Command hostbench is goptm's host-time benchmark. It drives the
// real ptmserve and ptmbench binaries from outside, checks every
// output, and prints the run's metrics as one JSON line. run.py builds
// the binaries and calls it; see README.md for the workloads.
//
//	hostbench -bin DIR -workload durable-mix -seed 1 -seconds 40 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runDeadline keeps a run, including its traced probes, inside the
// three minutes a run may take.
const runDeadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "durable-mix, single-client or sim-fig4")
	seed := flag.Uint64("seed", 1, "seed of the key and op streams")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	bin := flag.String("bin", "", "directory holding the ptmserve and ptmbench binaries")
	root := flag.String("root", ".", "checkout root (holds results/metrics_smoke_baseline.json)")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *bin, *root); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, traced bool, bin, root string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	spec, isKV := kvSpecs[workload]
	if !isKV && workload != "sim-fig4" {
		return fmt.Errorf("unknown workload %q", workload)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	work := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &bench{ctx: ctx, bin: bin, root: root, work: work, seed: seed, seconds: time.Duration(seconds) * time.Second}
	defer b.stopAll()

	var m metricSet
	switch {
	case traced:
		b.spans = newSpanLog()
		m, err = b.runLayers(workload, spec, isKV)
		if err == nil {
			path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				err = b.spans.write(path)
			}
			if err == nil {
				fmt.Fprintf(os.Stderr, "hostbench: spans written to %s\n", path)
			}
		}
	case isKV:
		m, err = b.runKV(spec)
	default:
		m, err = b.runFig4()
	}
	if err != nil {
		return err
	}
	if b.tally.failed > 0 {
		fmt.Fprintf(os.Stderr, "hostbench: %d of %d operations failed; first: %s\n", b.tally.failed, b.tally.attempted, b.tally.firstFailure)
	}
	out, err := json.Marshal(result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
