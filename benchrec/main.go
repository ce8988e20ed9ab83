// Command benchrec is the repository's benchmark of record. It runs one of
// four fixed workloads on the classic event loop (the simulator's default
// configuration: no channel workers, no lookahead epoch), checks every run's
// simulated output against committed digests and seed-independent
// invariants, and prints the end-to-end metrics; with -trace 1 it instead
// prints the per-layer ledger, timed from this package around calls into
// each module's exported API (nothing is instrumented inside the program).
//
// Usage, from the repository root:
//
//	bash benchrec/run.sh --workload s3-hammer --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it stamp the
// host and print each metric with its unit; BENCHMARK.json at the
// repository root names the workloads and metrics, and benchrec/METRICS.md
// says which per-layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// budget scales every request budget; 1 is the benchmark of record, the
	// self-test runs at a small fraction.
	budget float64
	// expected maps workload → seed → result digest. A run whose digest
	// differs fails; a seed without an entry is checked for determinism
	// against the process's own first run.
	expected map[string]map[int64]string
	// spanDir receives the traced run's span file.
	spanDir string
	// root is the repository root, hashed into the host stamp.
	root string
	out  io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if ran, err := setupProbe(); ran {
		if err != nil {
			fail(err)
		}
		return
	}
	o := options{budget: 1, root: ".", out: os.Stdout}
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&o.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag))
	}
	o.trace = *traceFlag == 1
	if o.seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive, got %v", o.seconds))
	}
	exp, err := loadExpected()
	if err != nil {
		fail(err)
	}
	o.expected = exp
	rep, err := run(o)
	if err != nil {
		fail(err)
	}
	if err := writeReport(o.out, rep); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchrec:", err)
	os.Exit(1)
}

// run executes one invocation and returns its report. Errors are returned
// only for a workload that cannot be set up at all; a run that errors or
// produces wrong output is counted as failed in the report.
func run(o options) (report, error) {
	sp, ok := workloadByName(o.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	fmt.Fprintf(o.out, "host %s\n", hostStamp(o.root))
	fmt.Fprintf(o.out, "workload %s seed %d seconds %g trace %v budget %g\n", sp.name, o.seed, o.seconds, o.trace, o.budget)
	b, err := newBench(o, sp)
	if err != nil {
		return report{}, err
	}
	// The simulator runs one machine on one goroutine. Single-machine
	// workloads are timed with one P: with a second one, the runtime's
	// background work and goroutine migrations interleave with the timed
	// loop, which spread per-run medians several times wider on a 2-CPU
	// host. The grid keeps every P for its workers.
	if !sp.grid {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	fmt.Fprintf(o.out, "timed with GOMAXPROCS=%d, grid workers %d\n", runtime.GOMAXPROCS(0), b.nproc)
	if o.trace {
		return b.traced()
	}
	return b.endToEnd()
}

// writeReport prints every metric with its unit, then the JSON result line.
func writeReport(w io.Writer, rep report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "metric %-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "runs attempted %d failed %d\n", rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// host is the stamp printed ahead of every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func hostStamp(root string) string {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+modified"
			}
		}
	}
	b, err := json.Marshal(h)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the simulator's Go sources and go.mod under root, so a
// result identifies the code it measured even where no commit id is
// available (a source export without version control).
func sourceDigest(root string) string {
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "benchrec" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
