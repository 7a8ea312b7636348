package blobdb

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each iteration regenerates the full table/figure through the harness in
// internal/bench; the rendered result is printed once so `go test -bench`
// output doubles as the experiment report. cmd/blobbench runs the same
// experiments from the command line.

import (
	"runtime/debug"
	"sync"
	"testing"

	"blobdb/internal/bench"
)

var (
	printedMu sync.Mutex
	printed   = map[string]bool{}
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	fn := bench.Experiments()[id]
	if fn == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := fn()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}

		printedMu.Lock()
		if !printed[id] {
			printed[id] = true
			b.Logf("\n%s", res.String())
		}
		printedMu.Unlock()
		// Experiments allocate device slabs of hundreds of MB; return the
		// memory to the OS so a full -bench=. sweep stays within RAM.
		debug.FreeOSMemory()
	}
}

// BenchmarkFig5YCSB120B regenerates Figure 5 (YCSB, 120 B payload).
func BenchmarkFig5YCSB120B(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6a100KB regenerates Figure 6(a) (YCSB, 100 KB BLOBs).
func BenchmarkFig6a100KB(b *testing.B) { runExperiment(b, "fig6-100KB") }

// BenchmarkFig6b10MB regenerates Figure 6(b) (YCSB, 10 MB BLOBs).
func BenchmarkFig6b10MB(b *testing.B) { runExperiment(b, "fig6-10MB") }

// BenchmarkFig6cMixed regenerates Figure 6(c) (YCSB, 4 KB–10 MB BLOBs).
func BenchmarkFig6cMixed(b *testing.B) { runExperiment(b, "fig6-4KB-10MB") }

// BenchmarkFig6d1GB regenerates Figure 6(d) (YCSB, 1 GB BLOBs).
func BenchmarkFig6d1GB(b *testing.B) { runExperiment(b, "fig6-1GB") }

// BenchmarkFig7Metadata regenerates Figure 7 (Blob State scan vs fstat).
func BenchmarkFig7Metadata(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8WikiHot regenerates Figure 8 (Wikipedia reads, hot cache).
func BenchmarkFig8WikiHot(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9WikiCold regenerates Figure 9 (Wikipedia reads, cold cache).
func BenchmarkFig9WikiCold(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10BufferManagers regenerates Figure 10 (vmcache vs hash table).
func BenchmarkFig10BufferManagers(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11Utilization regenerates Figure 11 (throughput vs fill level).
func BenchmarkFig11Utilization(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkTable2SharedArea regenerates Table II (aliasing-area overhead).
func BenchmarkTable2SharedArea(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3Indexing regenerates Table III (Blob State vs prefix index).
func BenchmarkTable3Indexing(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4GitClone regenerates Table IV (git-clone trace replay).
func BenchmarkTable4GitClone(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkAblationTailExtent measures the §III-H tail-extent trade-off.
func BenchmarkAblationTailExtent(b *testing.B) { runExperiment(b, "ablation-tail") }

// BenchmarkAblationUpdateSchemes measures the delta-vs-clone crossover.
func BenchmarkAblationUpdateSchemes(b *testing.B) { runExperiment(b, "ablation-update") }

// BenchmarkAblationTierSweep sweeps tiers-per-level (capacity vs waste).
func BenchmarkAblationTierSweep(b *testing.B) { runExperiment(b, "ablation-tiers") }

// BenchmarkAblationAging measures heap aging under create/overwrite/delete
// churn and the online defragmenter (internal/maint) that undoes it.
func BenchmarkAblationAging(b *testing.B) { runExperiment(b, "ablation-aging") }
