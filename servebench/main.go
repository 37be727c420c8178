// Command servebench is the serving benchmark: it measures what a
// tivd user pays per query, end to end against real tivd processes
// (--trace 0), and splits one request's cost across the serving layers
// in a traced in-process run (--trace 1). See README.md.
//
//	bash servebench/run.sh --workload gateway-fanout --seed 3 --seconds 20 --trace 0
//
// The last line of stdout is the result: {"correct", "attempted",
// "failed", "metrics"}. The line before it is the run's full report,
// with the run-validity diagnostics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
)

func main() {
	os.Exit(run())
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	report            map[string]any
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: mono-uncached, gateway-fanout or live-churn")
		seed    = flag.Int64("seed", 1, "seed for the matrix and the request streams")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end run against tivd processes; 1: traced in-process layer run")
		tivd    = flag.String("tivd", "", "tivd binary built from the commit under test (end-to-end runs)")
		workdir = flag.String("workdir", os.TempDir(), "directory for the run's matrix file")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 0 && *tivd == "") {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (workload %q, seconds %d, trace %d, tivd %q)\n", *name, *seconds, *trace, *tivd)
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	sp, err := synth.Generate(synth.DS2Like(w.n, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	cfg := runConfig{w: w, m: sp.Matrix, seed: *seed, seconds: time.Duration(*seconds) * time.Second, nproc: nproc}

	steal0, _ := stealTicks() // diagnostics only: without /proc/stat both readings are 0
	var out outcome
	if *trace == 1 {
		out, err = runTraced(ctx, cfg)
	} else {
		dir, derr := os.MkdirTemp(*workdir, "servebench-")
		if derr != nil {
			fmt.Fprintln(os.Stderr, "servebench:", derr)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.matrixPath = filepath.Join(dir, "matrix.tivm")
		if err = writeMatrix(cfg.matrixPath, sp.Matrix); err == nil {
			out, err = runServed(ctx, cfg, *tivd)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}

	steal1, _ := stealTicks()
	rep := map[string]any{
		"workload":   w.name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		// CPU steal over the whole run, in 10 ms ticks summed over
		// every CPU of the machine.
		"steal_ticks": steal1 - steal0,
		"attempted":   out.attempted,
		"failed":      out.failed,
		"error_rate":  float64(out.failed) / float64(max(out.attempted, 1)),
		"metrics":     out.metrics,
	}
	for k, v := range out.report {
		rep[k] = v
	}
	if err := printJSON(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	if err := printJSON(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	return 0
}

// runConfig is one run's inputs.
type runConfig struct {
	w          *workload
	m          *delayspace.Matrix
	matrixPath string
	seed       int64
	seconds    time.Duration
	nproc      int
}

func writeMatrix(path string, m *delayspace.Matrix) error {
	var buf bytes.Buffer
	if err := delayspace.WriteBinary(&buf, m); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
