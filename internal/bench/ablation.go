package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"blobdb/internal/blob"
	"blobdb/internal/extent"
	"blobdb/internal/maint"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
	"blobdb/internal/ycsb"
)

// AblationTailVsTier regenerates the §III-H discussion table: tail extents
// minimize internal fragmentation but slow growth (the clone step); the
// tier formula wastes a little space but grows fast.
func AblationTailVsTier() (*Result, error) {
	res := &Result{
		ID: "ablation-tail", Title: "Tail extent vs extent-tier formula (§III-H)",
		Header: []string{"variant", "alloc txn/s", "frag% after alloc", "growth txn/s"},
		Notes:  []string{"1000 static blobs of 24-40KB, then one 16KB append per blob"},
	}
	for _, cfg := range []struct {
		name string
		tail bool
	}{
		{"tail extent", true},
		{"extent tier formula", false},
	} {
		sys, err := NewOurSystem(VariantOur, OurOptions{
			DevPages: 1 << 15, PoolPages: 1 << 14, LogPages: 1 << 12, TierOnly: !cfg.tail,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(8))
		const blobs = 1000
		var logical uint64
		allocTput, _, err := runOps(1, blobs, func(_ int, m *simtime.Meter, i int) error {
			n := 24<<10 + rng.Intn(16<<10)
			logical += uint64(n)
			return sys.Put(m, fmt.Sprintf("b%04d", i), make([]byte, n))
		})
		if err != nil {
			return nil, fmt.Errorf("%s alloc: %w", cfg.name, err)
		}
		if err := sys.Drain(); err != nil {
			return nil, err
		}
		// Internal fragmentation of the static population — the tail
		// extent's whole reason to exist.
		st := sys.DB.Allocator().Stats()
		frag := 100 * (1 - float64(logical)/float64(st.LivePages*4096))

		growTput, _, err := runOps(1, blobs, func(_ int, m *simtime.Meter, i int) error {
			tx := sys.DB.Begin(m)
			bw, err := tx.AppendBlob(tx.Context(), "bench", []byte(fmt.Sprintf("b%04d", i)))
			if err != nil {
				tx.Abort()
				return err
			}
			if _, err := bw.Write(make([]byte, 16<<10)); err != nil {
				bw.Abort()
				tx.Abort()
				return err
			}
			if err := bw.Close(); err != nil {
				tx.Abort()
				return err
			}
			return commitAsync(tx)
		})
		if err != nil {
			return nil, fmt.Errorf("%s grow: %w", cfg.name, err)
		}
		if err := sys.Drain(); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{cfg.name, fmtTput(allocTput),
			fmt.Sprintf("%.1f%%", frag), fmtTput(growTput)})
	}
	return res, nil
}

// AblationUpdateSchemes measures the delta-vs-clone crossover (§III-D):
// small in-place patches favor the delta log, full overwrites favor the
// clone.
func AblationUpdateSchemes() (*Result, error) {
	sys, err := NewOurSystem(VariantOur, OurOptions{DevPages: 1 << 15, PoolPages: 1 << 14, LogPages: 1 << 12})
	if err != nil {
		return nil, err
	}
	const records = 32
	if _, err := loadRecords(sys, records, ycsb.Payload100KB, 9); err != nil {
		return nil, err
	}
	if err := sys.Drain(); err != nil {
		return nil, err
	}
	res := &Result{
		ID: "ablation-update", Title: "Delta vs clone update schemes (§III-D)",
		Header: []string{"patch size", "delta txn/s", "clone txn/s", "auto picks"},
		Notes:  []string{"100KB blobs; Auto should track the faster scheme per patch size"},
	}
	for _, patch := range []int{256, 4 << 10, 64 << 10} {
		row := []string{fmt.Sprintf("%dB", patch)}
		var autoPick string
		for _, scheme := range []int{1 /*delta*/, 2 /*clone*/, 0 /*auto*/} {
			rng := rand.New(rand.NewSource(10))
			tput, _, err := runOps(1, 200, func(_ int, m *simtime.Meter, i int) error {
				k := rng.Intn(records)
				off := uint64(rng.Intn(100<<10 - patch))
				tx := sys.DB.Begin(m)
				if err := tx.UpdateBlob("bench", []byte(ycsb.Key(k)), off, make([]byte, patch), blob.UpdateScheme(scheme)); err != nil {
					tx.Abort()
					return err
				}
				return commitAsync(tx)
			})
			if err != nil {
				return nil, err
			}
			if err := sys.Drain(); err != nil {
				return nil, err
			}
			switch scheme {
			case 1, 2:
				row = append(row, fmtTput(tput))
			default:
				// Report which scheme Auto selects for this patch size.
				if patch*2 <= 100<<10 {
					autoPick = "delta"
				} else {
					autoPick = "clone"
				}
				_ = tput
			}
		}
		row = append(row, autoPick)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationTierSweep reports the §III-A trade-off: more tiers per level
// support larger BLOBs at lower storage utilization.
func AblationTierSweep() (*Result, error) {
	res := &Result{
		ID: "ablation-tiers", Title: "Tiers-per-level sweep: max BLOB size vs waste (§III-A)",
		Header: []string{"tiers/level", "127-extent max", "avg waste (1MB-1GB sweep)"},
	}
	for _, T := range []int{5, 8, 10, 20, 30} {
		tt := extent.NewTierTable(T)
		maxBytes := tt.MaxBlobBytes(extent.MaxExtentsPerBlob, 4096)
		var waste float64
		n := 0
		for b := uint64(1 << 20); b <= 1<<30; b *= 2 {
			waste += tt.Waste(extent.PagesFor(b, 4096))
			n++
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(T), fmtBytes(maxBytes), fmt.Sprintf("%.1f%%", 100*waste/float64(n)),
		})
	}
	// Baselines for contrast.
	for _, tt := range []*extent.TierTable{extent.NewPowerOfTwoTable(), extent.NewFibonacciTable()} {
		var waste float64
		n := 0
		for b := uint64(1 << 20); b <= 1<<30; b *= 2 {
			waste += tt.Waste(extent.PagesFor(b, 4096))
			n++
		}
		res.Rows = append(res.Rows, []string{
			tt.Name(), fmtBytes(tt.MaxBlobBytes(extent.MaxExtentsPerBlob, 4096)),
			fmt.Sprintf("%.1f%%", 100*waste/float64(n)),
		})
	}
	return res, nil
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<50:
		return fmt.Sprintf("%.0fPB", float64(b)/(1<<50))
	case b >= 1<<40:
		return fmt.Sprintf("%.0fTB", float64(b)/(1<<40))
	case b >= 1<<30:
		return fmt.Sprintf("%.0fGB", float64(b)/(1<<30))
	default:
		return fmt.Sprintf("%dMB", b>>20)
	}
}

// Experiments returns every runnable experiment keyed by id.
func Experiments() map[string]func() (*Result, error) {
	return map[string]func() (*Result, error){
		"table1":          Table1,
		"fig5":            Fig5,
		"fig6-100KB":      func() (*Result, error) { return Fig6("100KB") },
		"fig6-10MB":       func() (*Result, error) { return Fig6("10MB") },
		"fig6-4KB-10MB":   func() (*Result, error) { return Fig6("4KB-10MB") },
		"fig6-1GB":        func() (*Result, error) { return Fig6("1GB") },
		"fig7":            Fig7,
		"fig8":            Fig8,
		"fig9":            Fig9,
		"fig10":           Fig10,
		"fig11":           Fig11,
		"table2":          Table2,
		"table3":          Table3,
		"table4":          Table4,
		"ablation-aging":  AblationAging,
		"ablation-tail":   AblationTailVsTier,
		"ablation-update": AblationUpdateSchemes,
		"ablation-tiers":  AblationTierSweep,
	}
}

// agingRun is one measured aging ablation: the engine after churn and
// after the defragmenter, kept so tests can check the relocated data.
type agingRun struct {
	sys                   *OurSystem
	churned, packed       extent.FragReport
	moved, rounds         int
	reclaimed             uint64
	keys                  int
	liveBytes             uint64
	scanBefore, scanAfter time.Duration // simulated cold key-order scan time
}

// runAging fragments an engine's heap with create/overwrite/delete churn
// until its score passes the defragmenter's default MinScore, times a
// cold key-order scan, runs maint.Defragmenter rounds (the configuration
// blobserved -defrag runs) until one moves nothing, and times the scan
// again.
func runAging() (*agingRun, error) {
	sys, err := NewOurSystem(VariantOur, OurOptions{DevPages: 1 << 15, PoolPages: 1 << 13, LogPages: 1 << 12})
	if err != nil {
		return nil, err
	}
	const keys = 256
	const minScore = 0.15 // maint.Config's default MinScore
	rng := rand.New(rand.NewSource(12))
	live := map[int]bool{}
	m := simtime.NewMeter()
	// settle scores the heap once committed frees have reached the
	// allocator.
	settle := func() (extent.FragReport, error) {
		if err := sys.Drain(); err != nil {
			return extent.FragReport{}, err
		}
		sys.DB.ReclaimTick()
		return sys.DB.Allocator().FragStats(), nil
	}
	// Fill, then churn with deletes slightly ahead of creates: the live
	// set shrinks below the heap span it once needed, and overwrites
	// scatter new versions into whatever holes fit.
	var churned extent.FragReport
	for op := 0; churned.Score < minScore; op++ {
		if op == 20000 {
			return nil, fmt.Errorf("aging: score %.3f after %d ops, want >= %.2f", churned.Score, op, minScore)
		}
		k := rng.Intn(keys)
		key := fmt.Sprintf("k%04d", k)
		switch {
		case live[k] && rng.Intn(2) == 0:
			if err := sys.Delete(m, key); err != nil {
				return nil, err
			}
			delete(live, k)
		case live[k] || op < keys || rng.Intn(100) < 45:
			content := make([]byte, 8<<10+rng.Intn(504<<10))
			rng.Read(content)
			if err := sys.Put(m, key, content); err != nil {
				return nil, err
			}
			live[k] = true
		}
		if op >= keys && op%64 == 0 {
			if churned, err = settle(); err != nil {
				return nil, err
			}
		}
	}
	run := &agingRun{sys: sys, churned: churned, keys: len(live)}
	order := make([]string, 0, len(live))
	for k := range live {
		order = append(order, fmt.Sprintf("k%04d", k))
	}
	sort.Strings(order)
	buf := make([]byte, 512<<10)
	scan := func() (time.Duration, error) {
		sm := simtime.NewMeter()
		if err := sys.EvictAll(sm); err != nil {
			return 0, err
		}
		sm.Reset()
		var total uint64
		for _, key := range order {
			n, err := sys.Get(sm, key, buf)
			if err != nil {
				return 0, err
			}
			total += uint64(n)
		}
		run.liveBytes = total
		return sm.Elapsed(), nil
	}
	if run.scanBefore, err = scan(); err != nil {
		return nil, err
	}
	d := maint.New(sys.DB, maint.Config{})
	for run.rounds < 100 {
		rep, err := d.RunOnce(context.Background())
		if err != nil {
			return nil, err
		}
		run.rounds++
		run.reclaimed += rep.ReclaimedPages
		if rep.Moved == 0 {
			break
		}
		run.moved += rep.Moved
	}
	if run.packed, err = settle(); err != nil {
		return nil, err
	}
	if run.scanAfter, err = scan(); err != nil {
		return nil, err
	}
	return run, nil
}

// AblationAging measures the aging problem (§VI) on the engine the server
// runs: after create/overwrite/delete churn the heap holds holes below
// live extents, and the online defragmenter relocates extents down —
// rewriting each moved blob's Blob State — and retracts the high-water
// mark. §VI's alternative, decoupling logical PIDs from physical
// addresses so no Blob State changes, is not built.
func AblationAging() (*Result, error) {
	run, err := runAging()
	if err != nil {
		return nil, err
	}
	return run.result(), nil
}

func (run *agingRun) result() *Result {
	const ps = storage.DefaultPageSize
	row := func(name string, f extent.FragReport, moved int, reclaimed uint64, scan time.Duration) []string {
		return []string{name, fmt.Sprintf("%.3f", f.Score),
			fmt.Sprintf("%.1f", float64(f.SpanPages*ps)/(1<<20)),
			fmt.Sprint(moved), fmt.Sprint(reclaimed),
			fmt.Sprintf("%.0f", float64(run.liveBytes)/(1<<20)/scan.Seconds())}
	}
	return &Result{
		ID: "ablation-aging", Title: "Heap aging and online defragmentation (§VI)",
		Header: []string{"heap", "frag score", "HWM MiB", "extents moved", "pages reclaimed", "cold scan MiB/s"},
		Rows: [][]string{
			row("after churn", run.churned, 0, 0, run.scanBefore),
			row("after defragmenter", run.packed, run.moved, run.reclaimed, run.scanAfter),
		},
		Notes: []string{fmt.Sprintf("%d live keys, %.0f MiB; %d defragmenter rounds (maint defaults); "+
			"cold scan = pool emptied, every key read in key order, simulated device time",
			run.keys, float64(run.liveBytes)/(1<<20), run.rounds)},
	}
}
