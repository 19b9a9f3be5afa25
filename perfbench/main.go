// Command perfbench is the repository's benchmark. It drives the p2h stack
// from outside — the library, the p2hd HTTP layer and the cluster router —
// on one of four workloads, checks every answer, and prints one JSON result
// line whose metric names and units come from BENCHMARK.json at the root of
// the checkout.
//
//	go run . --workload inproc-exact --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, measured in a separate traced window after
// an untraced one of equal length, plus a per-layer self-time table.
// perfbench/WORKLOADS.md says what each workload is for.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// corpusSeed fixes each workload's data set and index configuration, the
// way a benchmark fixes its corpus; --seed draws everything sent to the
// system: the queries, the request mix, filters, the insert and delete
// stream. Seed-to-seed differences in data-set difficulty would otherwise
// swamp the run-to-run comparison the benchmark exists for.
const corpusSeed = 1

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	window  time.Duration // measurement time of the whole run
	tr      *tracer       // nil unless --trace 1
	workDir string        // scratch files, removed when the run ends
}

// outcome is what a workload reports.
type outcome struct {
	metrics map[string]float64 // end-to-end and per-layer values by name
	samples map[string]int     // sample counts behind the timing metrics
	fails   failures
	notes   map[string]any // rates, sizes and other context for the report
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, notes: map[string]any{}}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"inproc-exact":   runInproc,
	"http-serve":     runHTTPServe,
	"mutate-durable": runMutate,
	"routed":         runRouted,
}

// metricDecl is one metric declaration of BENCHMARK.json.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: inproc-exact, http-serve, mutate-durable or routed")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "measurement time of the run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	decl, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed:    seed,
		window:  time.Duration(seconds * float64(time.Second)),
		workDir: filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
	}
	if traced {
		cfg.tr = &tracer{}
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.workDir)

	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if traced {
		if err := writeSpans(cfg.tr, workload, seed); err != nil {
			return err
		}
		fmt.Print(cfg.tr.selfTimeTable())
	}
	return emit(workload, seed, seconds, traced, decl, out)
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, fmt.Errorf("metric declarations: %w", err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("metric declarations: %s: %w", path, err)
	}
	return b, nil
}

// emit prints the human-readable report, a JSON report line with the host
// fingerprint and failure breakdown, and — last — the result line. A wrong
// answer makes the run fail after printing.
func emit(workload string, seed int64, seconds float64, traced bool, decl benchmarkFile, out *outcome) error {
	declared := decl.EndToEnd
	if traced {
		declared = decl.PerLayer
	}
	known := map[string]bool{}
	for _, m := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		known[m.Name] = true
	}
	for name := range out.metrics {
		if !known[name] {
			return fmt.Errorf("%s: metric %q is not declared in BENCHMARK.json", workload, name)
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(declared))
	fmt.Printf("%s seed=%d seconds=%g trace=%v\n", workload, seed, seconds, traced)
	for _, m := range declared {
		v, ok := out.metrics[m.Name]
		if !ok {
			if !traced {
				return fmt.Errorf("%s: end-to-end metric %q was not measured", workload, m.Name)
			}
			v = 0 // the workload bypasses this layer
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %q is %v", workload, m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
		line := fmt.Sprintf("  %-36s %14.6g %s", m.Name, v, m.Unit)
		if n, ok := out.samples[m.Name]; ok {
			line += fmt.Sprintf("  (samples=%d)", n)
		}
		fmt.Println(line)
	}
	f := out.fails
	fmt.Printf("  attempted=%d failed=%d (429=%d 504=%d other_non2xx=%d transport=%d wrong=%d) error_frac=%.6g\n",
		f.attempted, f.failed(), f.shed, f.expired, f.other, f.transport, f.wrong, f.errorFrac())

	// Metrics the workload measured that this mode does not report (the
	// per-layer ones in an untraced run, say) are printed but not gated.
	inMode := map[string]bool{}
	for _, m := range declared {
		inMode[m.Name] = true
	}
	extra := map[string]float64{}
	for name, v := range out.metrics {
		if !inMode[name] {
			extra[name] = v
		}
	}
	if len(extra) > 0 {
		names := make([]string, 0, len(extra))
		for name := range extra {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("  also measured:")
		for _, name := range names {
			fmt.Printf("    %-34s %14.6g\n", name, extra[name])
		}
	}
	report := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"host": hostFingerprint(), "commit": commit(),
		"failures": map[string]int64{
			"attempted": f.attempted, "shed_429": f.shed, "expired_504": f.expired,
			"other_non2xx": f.other, "transport": f.transport, "wrong_answer": f.wrong,
		},
		"error_frac": f.errorFrac(), "samples": out.samples, "notes": out.notes, "extra": extra,
	}
	rb, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	fmt.Println(string(rb))

	res, err := json.Marshal(map[string]any{
		"correct": f.wrong == 0, "attempted": f.attempted, "failed": f.failed(), "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	if f.wrong > 0 {
		return fmt.Errorf("%s: %d wrong answers", workload, f.wrong)
	}
	return nil
}

// hostFingerprint names the machine a result was measured on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
	}
}

// commit is the source revision, as run.sh found it; a checkout without git
// history reports "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// failures tallies attempted requests and why the failed ones failed.
type failures struct {
	attempted                              int64
	shed, expired, other, transport, wrong int64
}

func (f failures) failed() int64 { return f.shed + f.expired + f.other + f.transport + f.wrong }

func (f failures) errorFrac() float64 {
	if f.attempted == 0 {
		return 0
	}
	return float64(f.failed()) / float64(f.attempted)
}

func (f *failures) add(o failures) {
	f.attempted += o.attempted
	f.shed += o.shed
	f.expired += o.expired
	f.other += o.other
	f.transport += o.transport
	f.wrong += o.wrong
}

var errWrongAnswer = errors.New("wrong answer")

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// setLatency records a latency distribution's median and p99 under the
// end-to-end names, with the sample count; the p99 has at least ten samples
// beyond it once there are 1000.
func (o *outcome) setLatency(prefix string, ms []float64) {
	o.metrics[prefix+"_p50_ms"] = quantile(ms, 0.5)
	o.metrics[prefix+"_p99_ms"] = quantile(ms, 0.99)
	o.samples[prefix+"_p50_ms"] = len(ms)
	o.samples[prefix+"_p99_ms"] = len(ms)
	o.notes[prefix+"_p99_beyond"] = len(ms) - int(math.Ceil(0.99*float64(len(ms))))
}

// sample is one completed operation of a measured window: when it
// finished, how many answers it produced, and its latency in ms (negative
// for an operation that is not a latency sample, such as a batch call).
type sample struct {
	end     time.Time
	answers int
	ms      float64
}

// subWindows is how many equal slices steadyRates cuts a window into.
const subWindows = 5

// rates are a window's answers per second and median and p90 latency.
type rates struct{ qps, p50, p90 float64 }

// steadyRates returns a window's rates, each as the median over subWindows
// equal time slices of it, so that a short disturbance on a shared host
// moves none of them much.
func steadyRates(samples []sample, start time.Time, d time.Duration) rates {
	slice := d / subWindows
	answers := make([]float64, subWindows)
	lat := make([][]float64, subWindows)
	for _, s := range samples {
		i := min(max(int(s.end.Sub(start)/slice), 0), subWindows-1)
		answers[i] += float64(s.answers)
		if s.ms >= 0 {
			lat[i] = append(lat[i], s.ms)
		}
	}
	var p50s, p90s []float64
	for i := range answers {
		answers[i] /= slice.Seconds()
		if len(lat[i]) > 0 {
			p50s = append(p50s, quantile(lat[i], 0.5))
			p90s = append(p90s, quantile(lat[i], 0.9))
		}
	}
	return rates{median(answers), median(p50s), median(p90s)}
}

// latencies returns the latencies of the samples that are latency samples.
func latencies(samples []sample) []float64 {
	var xs []float64
	for _, s := range samples {
		if s.ms >= 0 {
			xs = append(xs, s.ms)
		}
	}
	return xs
}

// setSteady records a window's steady rates (see steadyRates) as the
// end-to-end qps, latency_p50_ms and latency_p90_ms, replacing the whole-run
// median setLatency put there; the whole-run p99 stays.
func (o *outcome) setSteady(r rates) {
	o.metrics["qps"], o.metrics["latency_p50_ms"], o.metrics["latency_p90_ms"] = r.qps, r.p50, r.p90
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// window is one measured stretch of a run.
type window struct {
	d  time.Duration
	tr *tracer // nil: untraced
}

// windows splits the run into the measured windows: the whole run, or —
// traced — an untraced half followed by a traced half, so the overhead of
// tracing is measured against the same setup.
func windows(cfg runConfig) []window {
	if cfg.tr == nil {
		return []window{{cfg.window, nil}}
	}
	return []window{{cfg.window / 2, nil}, {cfg.window / 2, cfg.tr}}
}

// traceOverhead is the traced window's median service time over the
// untraced one's, minus one.
func traceOverhead(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return median(traced)/u - 1
}
