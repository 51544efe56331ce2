// Command perfbench is the repository benchmark: three closed-loop
// workloads over the federation, each generated from a seed, each with
// result checks, reporting end-to-end metrics (tracing off) or
// per-layer metrics (a separate traced run).
//
// Run it through run.sh from the repository root, which builds this
// module and executes one workload per process:
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// Human-readable lines go to standard output first; the last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. A
// failed result check makes the run exit 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop concurrency: one buyer-facing app server
// process with two workers, each waiting for its reply before sending
// the next request (the sizing host has two cores).
const clients = 2

// setupReps is how many times each run builds its workload's bed;
// setup_s is the median.
const setupReps = 5

// outDir holds the traced run's spans and CPU profile, and scratch
// WAL directories while a run is live. Relative to the working
// directory, which is the repository root.
const outDir = ".perfbench_out"

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	out      string // per-run file prefix under outDir
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Each workload gives the two latency
// classes its own meaning (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"rows_per_s", "1/s"},
	{"point_p50_ms", "ms"},
	{"point_p90_ms", "ms"},
	{"search_p50_ms", "ms"},
	{"search_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every traced run reports all
// of them; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"sqlparse.parse_us", "us"},
	{"admission.wait_us", "us"},
	{"remote.open_ms", "ms"},
	{"remote.fetches_per_query", "count"},
	{"federation.self_ms", "ms"},
	{"federation.useful_row_frac", "ratio"},
	{"exec.local_exec_ms", "ms"},
	{"federation.gather_ms", "ms"},
	{"remote.next_ns_per_row", "ns"},
	{"remote.bytes_per_row", "B"},
	{"federation.stream_next_ns_per_row", "ns"},
	{"federation.peak_buffered_rows", "count"},
	{"wal.appends_per_stmt", "count"},
	{"wal.fsync_p50_us", "us"},
	{"journal.intents_appended", "count"},
	{"journal.pending_peak", "count"},
	{"wal.load_ns_per_row", "ns"},
	{"federation.checkpoint_ms", "ms"},
	{"wal.open_ms", "ms"},
	{"federation.restore_site_ms", "ms"},
	{"federation.reconcile_ms", "ms"},
	{"sync.insert_p50_ms", "ms"},
	{"sync.insert_p90_ms", "ms"},
	{"sync.recovery_s", "s"},
	{"sync.read_retries", "count"},
	{"sync.wal_bytes_per_row", "B"},
	{"trace.accounted_frac", "ratio"},
	{"trace.escaped_spans", "count"},
	{"trace.overhead_pct", "%"},
}

// accountTolerance is how far the traced run's per-layer union plus
// self time may drift from the summed operation wall time before the
// run fails: spans are recorded around calls that nest inside their
// operation, so anything beyond clock granularity means a span escaped.
const accountTolerance = 0.01

// report collects one run's figures.
type report struct {
	mu        sync.Mutex
	values    map[string]float64
	info      []string // extra human-readable lines
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  error
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	r.info = append(r.info, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// fail counts a failed operation and keeps the first reason.
func (r *report) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// setClass stores a latency class's median and tail under the given
// metric prefix and prints its sample count.
func (r *report) setClass(prefix, label string, s *Sample) {
	sum := s.summarize()
	r.set(prefix+"_p50_ms", sum.P50)
	r.set(prefix+"_p90_ms", sum.Tail)
	r.note("%s: n=%d p25=%.3fms p50=%.3fms p75=%.3fms p%02.0f=%.3fms mean=%.3fms max=%.3fms", label, sum.N,
		quantile(sum.Sorted, 0.25), sum.P50, quantile(sum.Sorted, 0.75), sum.TailQ*100, sum.Tail, sum.Mean, sum.Max)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "browse | feed | supplier-sync")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	cfg.out = filepath.Join(outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var runWorkload func(config, *report) error
	switch cfg.workload {
	case "browse":
		runWorkload = runBrowse
	case "feed":
		runWorkload = runFeed
	case "supplier-sync":
		runWorkload = runSync
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want browse, feed or supplier-sync)\n", cfg.workload)
		return 2
	}
	rep := newReport()
	if err := runWorkload(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.set("peak_rss_mb", peakRSSMB())
	return emit(cfg, rep)
}

// emit prints the human-readable report and the JSON result line.
func emit(cfg config, rep *report) int {
	w := bufio.NewWriter(os.Stdout)
	mode := "end-to-end (tracing off)"
	defs := endToEnd
	if cfg.trace {
		mode = "per-layer (traced)"
		defs = perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f clients=%d: %s\n", cfg.workload, cfg.seed, cfg.dur.Seconds(), clients, mode)
	for _, line := range rep.info {
		fmt.Fprintln(w, "  "+line)
	}
	attempted, failed := rep.attempted.Load(), rep.failed.Load()
	failedFrac := 0.0
	if attempted > 0 {
		failedFrac = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(w, "  %-36s %14.6f %s\n", "failed_frac", failedFrac, "ratio")
	res := jsonResult{Attempted: attempted, Failed: failed, Metrics: make(map[string]jsonMetric)}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-36s %14.6f %s\n", d.name, v, d.unit)
	}
	res.Correct = rep.firstErr == nil && failed == 0 && attempted > 0
	if rep.firstErr != nil {
		fmt.Fprintf(w, "  RESULT CHECK FAILED: %v\n", rep.firstErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// closedLoop runs `clients` workers, each issuing op back to back until
// d has elapsed; an operation in flight at the deadline completes. It
// returns the wall time from start to the last completion.
func closedLoop(d time.Duration, op func(client, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// tracedOp reports whether a traced run traces operation i: every
// other one, so the untraced half measures the same code on the same
// bed and the difference is the tracing overhead.
func tracedOp(cfg config, i int) bool { return cfg.trace && i%2 == 0 }

// overheadPct is the traced-minus-untraced median of a class, as a
// percentage of the untraced median.
func overheadPct(traced, untraced *Sample) float64 {
	t, u := traced.summarize().P50, untraced.summarize().P50
	if u <= 0 || math.IsNaN(t) || math.IsNaN(u) {
		return math.NaN()
	}
	return (t - u) / u * 100
}

// beginMeasure starts a measured phase. It collects the garbage set-up
// and warm-up left behind, so every phase starts from the same heap
// state instead of paying for a collection sized by whatever came
// before it; a traced run also starts its CPU profile. The returned
// stop function ends the profile.
func beginMeasure(cfg config) (stop func() error, err error) {
	runtime.GC()
	if !cfg.trace {
		return func() error { return nil }, nil
	}
	f, err := os.Create(cfg.out + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the start error is the one worth reporting
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// accountSpans checks and reports how the traced operations' wall time
// splits into child-layer time and self time, and returns each
// operation's breakdown.
func accountSpans(rep *report, spans []Span) []opBreakdown {
	ops := breakdown(spans)
	var wall, union, self int64
	escaped := 0
	for _, b := range ops {
		wall += b.wall
		union += b.union
		self += b.self
		escaped += b.escaped
	}
	frac := math.NaN()
	if wall > 0 {
		frac = float64(union+self) / float64(wall)
	}
	rep.set("trace.accounted_frac", frac)
	rep.set("trace.escaped_spans", float64(escaped))
	rep.note("trace accounting: %d traced ops, child-layer union %.1f%% + self %.1f%% of wall (tolerance ±%.0f%%), %d escaped spans",
		len(ops), pct(union, wall), pct(self, wall), accountTolerance*100, escaped)
	if len(ops) == 0 || math.Abs(frac-1) > accountTolerance || escaped > 0 {
		rep.fail(fmt.Errorf("trace accounting: %d ops, accounted %.4f of wall, %d escaped spans", len(ops), frac, escaped))
	}
	return ops
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
