// Command symbench is the repository's end-to-end benchmark. It builds
// its inputs from --seed, starts the symphonyd built from this checkout
// with a fresh data dir on a loopback port, drives one workload through
// the daemon's public HTTP surface, checks every answer, and prints the
// end-to-end metrics. With --trace 1 it instead replays the workload in
// process, through the HTTP mux and then each layer's entry points, and
// prints per-layer metrics. The last line of standard output is the
// result as JSON; earlier lines describe the run.
//
// Run it from the repository root through run.sh, which builds both
// programs first:
//
//	bash symbench/run.sh --workload catalog-search --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix; see README.md for why each exists.
type workload struct {
	name string
	// demo sends queries to the three demo apps, not the catalog app.
	demo bool
	// records is the size of ann's uploaded catalog.
	records int
	// rate is the open-loop arrival rate, queries per second.
	rate float64
	// uploadEvery is the re-upload period during the timed phases (0:
	// no uploads until the crash phase).
	uploadEvery time.Duration
	// checkpoint sets --checkpoint-interval (0: the daemon's default).
	checkpoint time.Duration
}

var workloads = []workload{
	{name: "demo-pages", demo: true, records: 50000, rate: 200},
	{name: "catalog-search", records: 50000, rate: 150},
	{name: "catalog-upload", records: 50000, rate: 150, uploadEvery: 500 * time.Millisecond, checkpoint: 5 * time.Second},
}

// closedShare is the share of --seconds spent in the closed-loop phase;
// the rest is the open-loop phase.
const closedShare = 0.2

func main() {
	procStart := time.Now()
	name := flag.String("workload", "", "workload: demo-pages, catalog-search or catalog-upload")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1: in-process traced run printing per-layer metrics")
	bin := flag.String("bin", filepath.Join(".bench_build", "symphonyd"), "symphonyd binary")
	daemonFlags := flag.String("daemon-flags", "", "extra symphonyd flags, space-separated (reference runs, e.g. --mmap=off)")
	flag.Parse()

	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "symbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, w, *seed, *seconds, *trace == 1, *bin, strings.Fields(*daemonFlags), procStart)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, line := range out.info {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintln(os.Stderr, "symbench: run description:", err)
		}
	}
	if err := enc.Encode(out.result); err != nil {
		fmt.Fprintln(os.Stderr, "symbench: result:", err)
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	info   []any
	result result
}

func run(ctx context.Context, w workload, seed int64, seconds float64, traced bool, bin string, extra []string, procStart time.Time) (*output, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, fmt.Errorf("run dir: %w", err)
	}
	defer os.RemoveAll(dir)

	cat := makeCatalog(seed, w.records)
	markers := make([]string, 10000)
	for i := range markers {
		markers[i] = marker(i)
	}
	if err := checkVocab(cat.vocab, cat.upVocab, cat.brands, markers); err != nil {
		return nil, err
	}
	var flags []string
	if w.checkpoint > 0 {
		flags = append(flags, "--checkpoint-interval", w.checkpoint.String())
	}
	flags = append(flags, extra...)
	nproc := runtime.NumCPU()
	r := &e2e{
		w: w, seed: seed, bin: bin, dir: dir, nproc: nproc,
		client:  newClient(nproc),
		cat:     cat,
		up:      newUploads(cat, seed),
		flags:   flags,
		ops:     map[string]*counts{},
		correct: true,
	}
	if w.demo {
		r.pageQ = pageQueries(seed, queryStream)
	} else {
		r.catQ = cat.queries(seed, queryStream)
	}
	stamp := envStamp(root, append([]string{"--addr", "127.0.0.1:<free port>", "--data-dir", "<run dir>"}, flags...))
	stamp["workload"], stamp["seed"], stamp["seconds"], stamp["trace"] = w.name, seed, seconds, traced

	var metrics map[string]metric
	var info map[string]any
	if traced {
		tr, err := runTrace(ctx, r, seconds)
		if err != nil {
			return nil, err
		}
		metrics, info = tr.metrics, tr.info
	} else {
		res, err := r.run(ctx, seconds, procStart)
		if err != nil {
			return nil, err
		}
		metrics, info = res.metrics, res.info
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", k)
		}
	}
	out := &output{result: result{Correct: r.correct, Metrics: metrics}}
	ops := map[string]counts{}
	for _, k := range sortedKinds(r.ops) {
		c := *r.ops[k]
		ops[k] = c
		out.result.Attempted += c.Attempted
		out.result.Failed += c.Failed
	}
	info["operations"] = ops
	if len(r.errs) > 0 {
		info["first_errors"] = r.errs
	}
	out.info = []any{map[string]any{"environment": stamp}, info}
	if out.result.Attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return out, nil
}
