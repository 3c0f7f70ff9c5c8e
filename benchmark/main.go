// Command benchmark is the repo's one source of performance numbers. It
// drives the system only through its public surface, generates every
// input from -seed, checks every output against a reference, and prints
// one line per metric followed by one JSON object. BENCHMARK.json at the
// repo root is its contract; README.md beside this file is the manual.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// env is what a workload is given: the seed its inputs come from, how
// long to measure, and where traced runs and scratch files go.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	sz      sizes
	tr      *tracer // nil unless trace
}

// result is what a workload hands back.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	detail            map[string]float64 // traced run: rows for the trace file only
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), detail: make(map[string]float64)}
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload    = flag.String("workload", "all", "workload name, or all")
		seed        = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds     = flag.Float64("seconds", 20, "length of the measuring window")
		trace       = flag.String("trace", "0", "1: traced run, prints the per-layer metrics and writes trace-<workload>.json")
		out         = flag.String("out", ".bench_build/out", "directory for trace files and scratch data")
		repeatCheck = flag.Bool("repeat-check", false, "run every workload twice and compare the two sets against the bounds")
	)
	flag.Parse()
	traced := *trace == "1" || *trace == "true"
	fmt.Fprintf(os.Stderr, "# host: %s\n", hostFingerprint())

	var err error
	switch {
	case *repeatCheck:
		err = repeatability(*seed, *seconds, *out)
	case *workload == "all":
		for _, w := range workloads {
			if _, cerr := runChild(w.Name, *seed, *seconds, traced, *out, os.Stdout); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
	default:
		err = runOne(*workload, &env{seed: *seed, seconds: *seconds, trace: traced, outDir: *out, sz: fullSizes}, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs a workload in this process and prints its rows and report.
// Any operation that fails the correctness gate makes the error non-nil.
func runOne(name string, e *env, w io.Writer) error {
	def := findWorkload(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if e.trace {
		e.tr = newTracer()
	}
	before := calibMillis()
	res, err := def.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	after := calibMillis()
	res.metrics["host.calib_ms"] = after
	if math.Abs(after-before) > 0.1*before {
		fmt.Fprintf(w, "# disturbed %s: host.calib_ms %.2f before, %.2f after\n", name, before, after)
	}

	defs := endToEnd
	if e.trace {
		defs = perLayer
		path, err := e.tr.write(e.outDir, name, e.seed, res.detail)
		if err != nil {
			return fmt.Errorf("%s: write trace: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "# trace: %s\n", path)
	}
	rep := report{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%s %s %s %s\n", name, d.Name, formatValue(v), d.Unit)
	}
	fmt.Fprintf(w, "%s ops %d count\n%s failed_ops %d count\n", name, res.attempted, name, res.failed)
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", raw)
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed the correctness gate", name, res.failed, res.attempted)
	}
	return nil
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// runChild re-executes this binary for one workload, so that each starts
// from a clean heap and owns its VmHWM, copies the child's output to w and
// returns the child's report.
func runChild(name string, seed uint64, seconds float64, traced bool, out string, w io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-out", out)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, w)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: no report (%v)", name, errors.Join(runErr, err))
	}
	if runErr != nil {
		return &rep, fmt.Errorf("%s: %w", name, runErr)
	}
	return &rep, nil
}

// repeatability runs two full untraced sets of the same code and says,
// for every (workload, end-to-end metric), whether the two agree within
// the metric's bound. UNRESOLVED means the run-to-run gap alone is wider
// than the bound, so a change of that size could not be told from noise.
func repeatability(seed uint64, seconds float64, out string) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	var sets [2]map[string]*report
	disturbed := make(map[string]bool)
	for i := range sets {
		sets[i] = make(map[string]*report)
		for _, w := range workloads {
			var buf bytes.Buffer
			rep, err := runChild(w.Name, seed, seconds, false, out, &buf)
			if err != nil {
				return err
			}
			sets[i][w.Name] = rep
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "# disturbed") {
					disturbed[w.Name] = true
					fmt.Println(sc.Text())
				}
			}
		}
	}
	unresolved := 0
	fmt.Printf("%-15s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "gap", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.Name].Metrics[d.Name].Value, sets[1][w.Name].Metrics[d.Name].Value
			gap := math.Abs(b-a) / a
			verdict := "PASS"
			if gap > bounds[d.Name] {
				verdict = "UNRESOLVED"
				unresolved++
			}
			if disturbed[w.Name] {
				verdict += " (disturbed)"
			}
			fmt.Printf("%-15s %-18s %14.6g %14.6g %7.2f%% %5.0f%%  %s\n", w.Name, d.Name, a, b, gap*100, bounds[d.Name]*100, verdict)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d (workload, metric) pairs unresolved", unresolved)
	}
	return nil
}

// loadBounds reads the regression bounds from BENCHMARK.json, found in
// the working directory or its parent: the bounds are the contract's, not
// the program's.
func loadBounds() (map[string]float64, error) {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		bounds := make(map[string]float64)
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
		return bounds, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}
