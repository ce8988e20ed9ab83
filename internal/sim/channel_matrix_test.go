package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/defense/ideal"
	"repro/internal/defense/para"
	"repro/internal/defense/trr"
	"repro/internal/mc"
	"repro/internal/probe"
)

// chanCfg builds the quick-scale config with the requested channel count,
// page policy, and write buffering. Two cores keep cross-core detection
// attribution in play.
func chanCfg(channels int, pol mc.PagePolicy, buffered bool) Config {
	cfg := timelineCfg(channels)
	cfg.MC.PagePolicy = pol
	if !buffered {
		cfg.MC.WriteQueueDepth = 0
	}
	return cfg
}

// chanDefense builds one of the four defenses the matrix covers.
func chanDefense(t *testing.T, cfg Config, kind string) defense.Defense {
	t.Helper()
	switch kind {
	case "twice":
		return scaledTWiCe(t, cfg, core.PA)
	case "para":
		pa, err := para.New(0.01, cfg.DRAM, 7)
		if err != nil {
			t.Fatal(err)
		}
		return pa
	case "trr":
		tr, err := trr.New(trr.NewConfig(cfg.DRAM))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	case "ideal":
		id, err := ideal.New(ideal.NewConfig(cfg.DRAM))
		if err != nil {
			t.Fatal(err)
		}
		return id
	default:
		t.Fatalf("unknown defense kind %q", kind)
		return nil
	}
}

// chanRunState is everything one run leaves behind that an observer could
// compare: the full Result, the telemetry snapshot, and its serialized
// exports.
type chanRunState struct {
	res        *Result
	snap       probe.Snapshot
	csv, jsonl []byte
}

func exportState(t *testing.T, res *Result, rec *probe.Recorder, defKind string) chanRunState {
	t.Helper()
	st := chanRunState{res: res, snap: rec.Snapshot()}
	labels := []probe.CellLabel{{Workload: "S1", Defense: defKind}}
	var csv, jsonl bytes.Buffer
	if err := probe.WriteCSV(&csv, labels, []probe.Snapshot{st.snap}); err != nil {
		t.Fatal(err)
	}
	if err := probe.WriteJSONL(&jsonl, labels, []probe.Snapshot{st.snap}); err != nil {
		t.Fatal(err)
	}
	st.csv, st.jsonl = csv.Bytes(), jsonl.Bytes()
	return st
}

// compareRuns asserts the two runs are observationally identical: full
// Result (counters, sim time, flips, RCD stats, detection attribution, L3),
// telemetry snapshot, and byte-identical CSV/JSONL exports.
func compareRuns(t *testing.T, fresh, reused chanRunState) {
	t.Helper()
	if fresh.res.Counters != reused.res.Counters {
		t.Errorf("counters diverge:\n fresh  %+v\n reused %+v", fresh.res.Counters, reused.res.Counters)
	}
	if !reflect.DeepEqual(fresh.res, reused.res) {
		t.Errorf("results diverge:\n fresh  %+v\n reused %+v", fresh.res, reused.res)
	}
	if !reflect.DeepEqual(fresh.snap, reused.snap) {
		t.Errorf("telemetry snapshots diverge:\n fresh  %+v\n reused %+v", fresh.snap.Events, reused.snap.Events)
	}
	if !bytes.Equal(fresh.csv, reused.csv) {
		t.Error("telemetry CSV differs between fresh and recycled runs")
	}
	if !bytes.Equal(fresh.jsonl, reused.jsonl) {
		t.Error("telemetry JSONL differs between fresh and recycled runs")
	}
}

// TestChannelParallelEquivalence walks every channel count × page policy ×
// write-buffering × defense cell and requires the run on a fresh Machine to
// be byte-identical — same Result, same telemetry, same serialized exports —
// to the run on a CellRunner machine that a different defense has already
// dirtied. The name dates from when the matrix also compared channel-worker
// runs against the serial loop; with one event loop left, what the matrix
// still pins is that every defense's Reset and the multi-channel controller
// and device reset leave nothing behind, which TestMachineReuseMatchesFresh
// checks only for TWiCe on one channel.
func TestChannelParallelEquivalence(t *testing.T) {
	policies := []struct {
		name string
		pol  mc.PagePolicy
	}{
		{"open", mc.OpenPage},
		{"closed", mc.ClosedPage},
		{"minopen", mc.MinimalistOpen},
	}
	lim := Limits{MaxRequests: 2500, MaxTime: 20 * clock.Millisecond}
	for _, channels := range []int{1, 2, 4} {
		for _, pol := range policies {
			for _, buffered := range []bool{true, false} {
				for _, defKind := range []string{"twice", "para", "trr", "ideal"} {
					// Write buffering doesn't interact with TRR or the
					// ideal counter scheme, so one buffering mode covers
					// them.
					if !buffered && (defKind == "trr" || defKind == "ideal") {
						continue
					}
					wq := "wq"
					if !buffered {
						wq = "nowq"
					}
					name := fmt.Sprintf("ch%d/%s/%s/%s", channels, pol.name, wq, defKind)
					t.Run(name, func(t *testing.T) {
						cfg := chanCfg(channels, pol.pol, buffered)

						m, err := NewMachine(cfg, chanDefense(t, cfg, defKind), s1Workload(t, cfg))
						if err != nil {
							t.Fatal(err)
						}
						rec := probe.NewRecorder(probe.Config{})
						m.SetRecorder(rec)
						res, err := m.Run(lim)
						if err != nil {
							t.Fatal(err)
						}
						fresh := exportState(t, res, rec, defKind)

						// Dirty a recycled machine with another defense
						// first, then run the cell on it.
						dirty := "twice"
						if defKind == "twice" {
							dirty = "para"
						}
						runner := NewCellRunner(cfg)
						runner.SetRecorder(probe.NewRecorder(probe.Config{}))
						if _, err := runner.Run(chanDefense(t, cfg, dirty), s1Workload(t, cfg), lim); err != nil {
							t.Fatal(err)
						}
						reRec := probe.NewRecorder(probe.Config{})
						runner.SetRecorder(reRec)
						reRes, err := runner.Run(chanDefense(t, cfg, defKind), s1Workload(t, cfg), lim)
						if err != nil {
							t.Fatal(err)
						}
						compareRuns(t, fresh, exportState(t, reRes, reRec, defKind))
					})
				}
			}
		}
	}
}
