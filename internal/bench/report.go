package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"blobdb/internal/simtime"
	"blobdb/internal/ycsb"
)

// Result is one regenerated table or figure.
type Result struct {
	ID     string // "fig5", "table3", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Lookup returns the cell at (rowName, column header), or "" if absent.
func (r *Result) Lookup(rowName, col string) string {
	ci := -1
	for i, h := range r.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		return ""
	}
	for _, row := range r.Rows {
		if len(row) > ci && row[0] == rowName {
			return row[ci]
		}
	}
	return ""
}

// VirtualCores is the core count of the modeled machine (the paper's
// i7-13700K has 16 physical cores). The harness may run on any host — a
// single-core CI box included — so parallel speedup is modeled, not
// assumed from the host's scheduler: each worker's measured CPU time runs
// on its own virtual core up to this limit.
const VirtualCores = 16

// AggMemBW returns the modeled machine's aggregate DRAM bandwidth: the
// measured single-thread copy speed scales ~4x across cores before the
// memory controller saturates. This is the roofline that makes the
// hash-table pool's extra copy stop scaling in Figure 10 (§V-E "memcpy
// saturates the memory hierarchy").
func AggMemBW() float64 { return simtime.MeasuredCopyBW() * 4 }

// runCfg configures one measured window.
type runCfg struct {
	workers int
	ops     int
	// background reports cumulative busy time of pipeline stages that
	// overlap with the workers (the group committer). Sampled before and
	// after the window.
	background func() time.Duration
	// blocked reports cumulative time workers spent waiting on the
	// pipeline (backpressure, drains); subtracted from wall to recover
	// worker CPU.
	blocked func() time.Duration
}

// runModel drives ops operations and converts the measurements into the
// modeled machine's elapsed time:
//
//	workerCPU = wall - timeBlockedOnPipeline
//	elapsed   = max(workerCPU/min(workers, VirtualCores),   // CPU roofline
//	                backgroundBusy,                          // pipeline stage
//	                bytesMoved/AggMemBW)                     // memory roofline
//	          + max per-worker virtual time                  // modeled I/O &
//	                                                         // kernel costs
//
// Worker goroutines may be serialized by the host (single-core CI); their
// summed wall time minus pipeline waits is the worker CPU, which the model
// distributes over virtual cores; the background committer is a pipeline
// stage that overlaps with workers on its own core. This keeps results
// host-independent while every copy, hash, and B-tree operation is still
// physically executed.
func runModel(cfg runCfg, op func(workerID int, m *simtime.Meter, i int) error) (opsPerSec float64, agg simtime.Counters, err error) {
	meters := make([]*simtime.Meter, cfg.workers)
	for i := range meters {
		meters[i] = simtime.NewMeter()
	}
	bgBefore := time.Duration(0)
	if cfg.background != nil {
		bgBefore = cfg.background()
	}
	blockedBefore := time.Duration(0)
	if cfg.blocked != nil {
		blockedBefore = cfg.blocked()
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.workers)
	per := cfg.ops / cfg.workers
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if e := op(w, meters[w], i); e != nil {
					errs <- e
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	bg := time.Duration(0)
	if cfg.background != nil {
		bg = cfg.background() - bgBefore
	}
	blocked := time.Duration(0)
	if cfg.blocked != nil {
		blocked = cfg.blocked() - blockedBefore
	}
	select {
	case err = <-errs:
		return 0, simtime.Counters{}, err
	default:
	}
	total := simtime.NewMeter()
	var maxVirtual time.Duration
	for _, m := range meters {
		total.Add(m)
		if v := m.Elapsed(); v > maxVirtual {
			maxVirtual = v
		}
	}
	snap := total.Snapshot()

	workerCPU := wall - blocked
	if workerCPU < 0 {
		workerCPU = 0
	}
	cores := cfg.workers
	if cores > VirtualCores {
		cores = VirtualCores
	}
	elapsed := workerCPU / time.Duration(cores)
	if bg > elapsed {
		elapsed = bg
	}
	if bwFloor := time.Duration(float64(snap.BytesMoved) / AggMemBW() * 1e9); bwFloor > elapsed {
		elapsed = bwFloor
	}
	elapsed += maxVirtual
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(per*cfg.workers) / elapsed.Seconds(), snap, nil
}

// runOps is the single-pipeline convenience wrapper.
func runOps(workers, totalOps int, op func(workerID int, m *simtime.Meter, i int) error) (float64, simtime.Counters, error) {
	return runModel(runCfg{workers: workers, ops: totalOps}, op)
}

// fmtTput renders a throughput cell.
func fmtTput(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// loadRecords seeds a system with n records of the given payload and
// returns the record sizes (for read buffers).
func loadRecords(sys System, n int, payload ycsb.Payload, seed int64) ([]int, error) {
	w := ycsb.New(n, 0, payload, seed)
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		v := w.Value()
		sizes[i] = len(v)
		if err := sys.Put(nil, ycsb.Key(i), v); err != nil {
			return nil, fmt.Errorf("%s: load record %d: %w", sys.Name(), i, err)
		}
	}
	return sizes, nil
}

// maxSize returns the largest element (read-buffer sizing).
func maxSize(sizes []int) int {
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}

// sortedKeys returns map keys in stable order (deterministic reports).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
