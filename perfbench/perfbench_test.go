package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"blobdb/internal/buffer"
)

// deviceCounts runs read-cold with one client and returns the device's
// read and vectored-read counts over a fixed number of GETs, and its
// write and sync counts over the whole run. With traced set, the device,
// the handler and the transport are wrapped and record spans throughout.
//
// The load's reads are not compared: the streaming writer and the commit
// pipeline release frames on their own goroutines, so which frames the
// load leaves resident varies from run to run. The GETs start from an
// emptied pool with the eviction sampler reseeded at its fixed seed 42,
// and from there one client's read traffic repeats exactly.
func deviceCounts(t *testing.T, traced bool) [4]int64 {
	t.Helper()
	sp := workloads["read-cold"]
	const seed = 7
	d := newDataset(sp, seed, 1)
	state := make([]keyState, sp.keys)
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.on.Store(true)
	}
	e, err := openEngine(sp, filepath.Join(t.TempDir(), "db"), 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	var chk checker
	e.load(d, state, &chk)
	if err := e.db.Pool().EvictAll(nil); err != nil {
		t.Fatal(err)
	}
	e.db.Pool().(*buffer.VMPool).SetEvictionSeed(42)
	before := e.fdev.Stats().Snapshot()
	e.phase(d, state, seed, saltUntraced, time.Minute, 300, tr, &chk)
	if n := chk.failed(); n != 0 {
		t.Fatalf("%d output checks failed: %q", n, chk.failures)
	}
	if traced && len(tr.take()) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	s := e.fdev.Stats().Snapshot()
	counts := [4]int64{s.ReadOps - before.ReadOps, s.VecReads - before.VecReads, s.WriteOps, e.fdev.syncs.Load()}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestTracingKeepsDeviceCounts checks that the traced run measures the
// same program: the counts deviceCounts compares repeat exactly between
// untraced runs, so any difference comes from the wrappers, e.g. a device
// wrapper that hid the vectored calls from storage.ReadVec.
func TestTracingKeepsDeviceCounts(t *testing.T) {
	plain := deviceCounts(t, false)
	traced := deviceCounts(t, true)
	if plain != traced {
		t.Fatalf("device reads, vec reads, writes, syncs: untraced %v, traced %v", plain, traced)
	}
	if plain[1] == 0 {
		t.Fatal("read-cold issued no vectored reads")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 1089 {
		t.Errorf("p99 of 1..1100 = %v, %v; want 1089 with 11 samples beyond", v, err)
	}
	if v, err := percentile(xs[:1000], 0.99); err != nil || v != 1090 {
		t.Errorf("p99 of 101..1100 = %v, %v; want 1090 with 10 samples beyond", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples accepted with 9 beyond")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 1090 {
		t.Errorf("p50 of 20 samples = %v, %v; want 1090", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples accepted")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	for i := range names {
		if i < len(want) && names[i] != want[i] {
			t.Errorf("workloads %v, program has %v", names, want)
			break
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
