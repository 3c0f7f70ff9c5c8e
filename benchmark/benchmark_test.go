package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesSpec holds BENCHMARK.json to the lists the program
// emits from, and both to the contract's limits.
func TestContractMatchesSpec(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) || len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go, want 2..8", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %q / %q", i, c.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go, want at most 16", len(c.EndToEnd), len(endToEnd))
	}
	seen := make(map[string]bool)
	for i, d := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go has %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, got.Bound)
		}
		if seen[d.Name] || !nameRE.MatchString(d.Name) {
			t.Errorf("%s: duplicate or malformed name", d.Name)
		}
		seen[d.Name] = true
	}
	if len(c.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go, want at most 128", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := c.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go has %+v", i, got, d)
		}
		if seen[d.Name] || !nameRE.MatchString(d.Name) {
			t.Errorf("%s: duplicate or malformed name", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestWorkloadsEndToEnd runs every workload at tiny sizes, untraced and
// traced: each must pass its own correctness gate and report exactly the
// names the contract lists. Nothing is asserted about a timing.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				dir := t.TempDir()
				e := &env{seed: 7, seconds: 0.3, trace: traced, outDir: dir, sz: tinySizes}
				if err := runOne(w.Name, e, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the report: %v\n%s", err, lines[len(lines)-1])
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("report: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rep.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: reported %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, must never be 0", d.Name, v.Value)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestSetsNothingOnTrial keeps the benchmark out of the way of the
// earn-or-delete audit (ROADMAP item 3): it may set none of the options on
// trial and name no strategy, so deleting one never edits the benchmark.
func TestSetsNothingOnTrial(t *testing.T) {
	banned := regexp.MustCompile(`TableAffinity|ReplanEvery|IngressShards|StorePlan|MaxInflightPuts|Sequential\s*:|exec\.(Auto|Sequential|ForkJoin|Pipelined)\b|"(auto|sequential|forkjoin|pipelined)"`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			if m := banned.FindString(line); m != "" {
				t.Errorf("%s:%d: %q is on trial or names a strategy", f, i+1, m)
			}
		}
	}
}
