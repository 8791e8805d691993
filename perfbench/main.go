// Command perfbench is the repository's benchmark. It drives the
// matcher's layers and the in-process /v1 HTTP stack through one of
// three seeded workloads, checks every answer, and prints one JSON
// result line: the end-to-end metrics by default, or, with --trace 1,
// the per-layer metrics of a traced run. README.md describes the
// workloads, the metrics and how the two relate.
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, reported for every
// workload. README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"boot_ms", "ms"},
	{"op_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of the traced run. Every workload reports
// all of them; a layer the workload does not enter reads 0.
var perLayer = []metricDef{
	{"core.match_ms", "ms"},
	{"core.candidates", "count"},
	{"core.correspondences", "count"},
	{"core.align_ms", "ms"},
	{"service.serve_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.apply_delta_ms", "ms"},
	{"client.transport_ms", "ms"},
	{"client.late_ms", "ms"},
	{"protocol.encode_ms", "ms"},
	{"protocol.decode_ms", "ms"},
	{"protocol.response_bytes", "bytes"},
	{"artifact.hits", "count"},
	{"artifact.builds", "count"},
	{"artifact.hit_ratio", "ratio"},
	{"wiki.parse_ms", "ms"},
	{"wiki.with_delta_ms", "ms"},
	{"dict.busy_ms", "ms"},
	{"dict.entries", "count"},
	{"sim.typedata_ms", "ms"},
	{"sim.attrs", "count"},
	{"sim.duals", "count"},
	{"lsi.build_ms", "ms"},
	{"lsi.nnz", "count"},
	{"ingest.busy_ms", "ms"},
	{"ingest.mb_s", "MB/s"},
	{"ingest.skipped_lines", "count"},
	{"multi.clusters_ms", "ms"},
	{"multi.clusters", "count"},
	{"store.save_ms", "ms"},
	{"store.restore_ms", "ms"},
	{"store.bytes", "bytes"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"service.self_ms", "ms"},
	{"protocol.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"wiki.self_ms", "ms"},
	{"dict.self_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"lsi.self_ms", "ms"},
	{"ingest.self_ms", "ms"},
	{"multi.self_ms", "ms"},
	{"store.self_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 3
	// segments is how many pieces the measured phase is cut into. A
	// batch of bootsPerBatch boots runs before the first piece and after
	// each, so boot_ms samples the host at several moments of the run
	// instead of one.
	segments      = 3
	bootsPerBatch = 5
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	workdir string
}

// outcome is what a workload hands back: its metrics, its samples per
// request class and the failure ledger.
type outcome struct {
	e2e     map[string]float64
	layer   map[string]float64
	samples []sample
	elapsed time.Duration // length of the measured load
	clients int
	tracer  *Tracer
	ledger
}

// ledger counts attempted and failed operations. A failed operation is
// a transport error, a non-2xx status, an undecodable body or an answer
// that does not pass its output check.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string
}

// op records one operation; a non-nil err marks it failed.
func (l *ledger) op(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.messages) < 10 {
			l.messages = append(l.messages, err.Error())
		}
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-warm":    func(c runConfig) (*outcome, error) { return runServing(c, false) },
	"delta-mix":     func(c runConfig) (*outcome, error) { return runServing(c, true) },
	"dump-matchall": runDump,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed on the line before the result: the run's identity
// and its per-class send/success/failure counts and latencies.
type detail struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Seconds  int           `json:"seconds"`
	Trace    bool          `json:"trace"`
	Clients  int           `json:"clients"`
	Classes  []classReport `json:"classes"`
	Errors   []string      `json:"errors,omitempty"`
	Spans    string        `json:"spans,omitempty"`
}

func main() {
	name := flag.String("workload", "", "serve-warm, delta-mix or dump-matchall")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-warm|delta-mix|dump-matchall --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	if err := benchmark(*name, run, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(name string, run func(runConfig) (*outcome, error), cfg runConfig) error {
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	workdir, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	cfg.workdir = workdir

	out, err := run(cfg)
	if err != nil {
		return err
	}

	d := detail{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Clients: out.clients, Classes: summarize(out.samples, out.elapsed), Errors: out.messages,
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
		dir := filepath.Join(".bench_build", "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		d.Spans = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err := out.tracer.WriteFile(d.Spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	for _, e := range d.Errors {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]detail{"detail": d}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// heapSampler tracks the peak live heap — the most memory a completed
// garbage collection found reachable — while it runs. Unlike the heap's
// momentary size, which swings with where each collection happens to
// start, the live heap is what the workload holds on to. Reading
// runtime/metrics does not stop the world, so sampling does not disturb
// the latencies being measured.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	return <-h.done
}

// runtimeCounters snapshots the runtime's cumulative allocation and CPU
// accounting, for per-operation allocation and the GC's CPU share.
type runtimeCounters struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// runtimeMetrics derives runtime.alloc_mb_per_op and runtime.gc_cpu_frac
// over the window between two snapshots in which ops operations ran.
func runtimeMetrics(from, to runtimeCounters, ops int, m map[string]float64) {
	if ops > 0 {
		m["runtime.alloc_mb_per_op"] = float64(to.allocBytes-from.allocBytes) / (1 << 20) / float64(ops)
	}
	if cpu := to.allCPU - from.allCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (to.gcCPU - from.gcCPU) / cpu
	}
}

// settle collects the set-up's garbage so the measured phase starts
// from the workload's own live heap.
func settle() {
	runtime.GC()
	runtime.GC()
}
