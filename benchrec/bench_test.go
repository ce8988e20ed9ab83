package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// selfTestBudget scales every request budget down so each workload runs in
// seconds (the grid's S2 cells keep their three-cycle minimum). Its S3 cell
// still gets the 512 aggressor ACTs a detection needs.
const selfTestBudget = 0.06

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMain lets the test binary serve as the set-up probe the end-to-end
// runs start, as the benchmark binary does.
func TestMain(m *testing.M) {
	if ran, err := setupProbe(); ran {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runTiny runs one workload at the self-test budget and returns the parsed
// result line and the whole output.
func runTiny(t *testing.T, workload string, trace bool, expected map[string]map[int64]string) (report, string) {
	t.Helper()
	var out bytes.Buffer
	o := options{
		workload: workload,
		seed:     1,
		seconds:  0.05,
		trace:    trace,
		budget:   selfTestBudget,
		expected: expected,
		spanDir:  t.TempDir(),
		root:     "..",
		out:      &out,
	}
	rep, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	if err := writeReport(&out, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %q", last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct/attempted/failed/metrics", keys)
	}
	var parsed report
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		t.Fatal(err)
	}
	return parsed, out.String()
}

// digestLine returns the reference digest a run printed.
func digestLine(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) == 5 && f[0] == "digest" {
			return f[4]
		}
	}
	t.Fatalf("no digest line in output:\n%s", out)
	return ""
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	if got, want := strings.Join(ws, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, want)
	}
	check := func(kind string, js []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code [][2]string) {
		if len(js) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(js), len(code))
			return
		}
		for i := range js {
			if js[i].Name != code[i][0] || js[i].Unit != code[i][1] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, js[i].Name, js[i].Unit, code[i][0], code[i][1])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
}

// TestEveryWorkloadPrintsEveryMetric runs every workload untraced and
// traced at a tiny budget: each must pass its checks, print every metric of
// its kind with its unit, and the traced run's digest must equal the
// untraced one.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		var digests []string
		for _, trace := range []bool{false, true} {
			rep, out := runTiny(t, w, trace, nil)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, rep.Correct, rep.Attempted, rep.Failed, out)
			}
			want := endToEndMetrics
			if trace {
				want = layerMetrics
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m[0]]
				if !ok || got.Unit != m[1] {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m[0], got, m[1])
				}
				if !strings.Contains(out, "metric "+m[0]+" ") {
					t.Errorf("%s trace=%v: no printed line for %s", w, trace, m[0])
				}
			}
			if !trace {
				for _, m := range want {
					if rep.Metrics[m[0]].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m[0], rep.Metrics[m[0]].Value)
					}
				}
			}
			if strings.Contains(out, "WARNING") {
				t.Errorf("%s trace=%v: %s", w, trace, out)
			}
			digests = append(digests, digestLine(t, out))
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: traced digest %s differs from untraced %s", w, digests[1], digests[0])
		}
	}
}

// TestCorruptedDigestFails pins the output check: the run's own digest
// passes, a corrupted one makes every run count as failed.
func TestCorruptedDigestFails(t *testing.T) {
	_, out := runTiny(t, "s3-hammer", false, nil)
	d := digestLine(t, out)
	rep, out := runTiny(t, "s3-hammer", false, map[string]map[int64]string{"s3-hammer": {1: d}})
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("own digest: correct=%v failed=%d\n%s", rep.Correct, rep.Failed, out)
	}
	bad := "0" + d[1:]
	if bad == d {
		bad = "1" + d[1:]
	}
	rep, out = runTiny(t, "s3-hammer", false, map[string]map[int64]string{"s3-hammer": {1: bad}})
	if rep.Correct || rep.Failed == 0 || rep.Failed != rep.Attempted {
		t.Fatalf("corrupted digest: correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out)
	}
	if !strings.Contains(out, "FAIL digest") {
		t.Errorf("corrupted digest printed no FAIL line:\n%s", out)
	}
}

// TestCommittedDigestsParse keeps expected.json loadable.
func TestCommittedDigestsParse(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		if exp[w][1] == "" {
			t.Errorf("no committed digest for %s at the default seed 1", w)
		}
	}
}

// TestLapSum checks that an operation's time is the sum of each lap's
// rank-th fastest run, taken lap by lap across operations.
func TestLapSum(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		d := make([]time.Duration, len(v))
		for i, x := range v {
			d[i] = time.Duration(x) * time.Millisecond
		}
		return d
	}
	ops := [][]time.Duration{ms(5, 9, 4), ms(7, 3, 8), ms(6, 6, 6)}
	for _, c := range []struct {
		rank int
		want float64
	}{{0, 0.012}, {1, 0.018}, {5, 0.024}} {
		if got := lapSum(ops, c.rank); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("lapSum(rank %d) = %v, want %v", c.rank, got, c.want)
		}
	}
	if got := lapSum(nil, 0); got != 0 {
		t.Errorf("lapSum(nil) = %v, want 0", got)
	}
}
