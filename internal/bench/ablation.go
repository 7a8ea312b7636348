package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"blobdb/internal/blob"
	"blobdb/internal/extent"
	"blobdb/internal/remap"
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

// AblationAging demonstrates the §VI future-work out-of-place write policy
// (internal/remap): after heavy allocate/free churn the physical layout is
// fragmented and cold sequential-logical reads pay random-access costs;
// one defragmentation pass restores sequential physical order — without
// touching a single logical PID (i.e. no Blob State changes).
func AblationAging() (*Result, error) {
	const devPages = 1 << 14
	inner := storage.NewMemDevice(storage.DefaultPageSize, devPages, simtime.DefaultNVMe())
	dev := remap.New(inner, devPages/2, devPages)
	rng := rand.New(rand.NewSource(12))

	// Churn: allocate logical extents, free half, reallocate — physical
	// space fragments while logical space stays dense.
	type ext struct {
		pid storage.PID
		n   int
	}
	var live []ext
	var logical storage.PID
	buf := make([]byte, 64*storage.DefaultPageSize)
	for round := 0; round < 300; round++ {
		if rng.Intn(100) < 60 || len(live) == 0 {
			n := 1 + rng.Intn(16)
			if err := dev.WritePages(nil, logical, n, buf[:n*storage.DefaultPageSize]); err != nil {
				if len(live) > 0 {
					v := rng.Intn(len(live))
					dev.Forget(live[v].pid)
					live[v] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				continue
			}
			live = append(live, ext{logical, n})
			logical += storage.PID(n)
		} else {
			v := rng.Intn(len(live))
			dev.Forget(live[v].pid)
			live[v] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}

	// Scan in logical order (how a table scan would visit the blobs).
	sort.Slice(live, func(i, j int) bool { return live[i].pid < live[j].pid })
	coldScan := func() (float64, error) {
		m := simtime.NewMeter()
		for _, e := range live {
			if err := dev.ReadPages(m, e.pid, e.n, buf[:e.n*storage.DefaultPageSize]); err != nil {
				return 0, err
			}
		}
		return float64(len(live)) / m.Elapsed().Seconds(), nil
	}
	aged, err := coldScan()
	if err != nil {
		return nil, err
	}
	if err := dev.Defragment(nil, devPages/2); err != nil {
		return nil, err
	}
	defragged, err := coldScan()
	if err != nil {
		return nil, err
	}
	st := dev.Stats2()
	return &Result{
		ID: "ablation-aging", Title: "Out-of-place writes + defragmentation (§VI future work)",
		Header: []string{"layout", "cold reads/s"},
		Rows: [][]string{
			{"aged (fragmented)", fmtTput(aged)},
			{"after defragment", fmtTput(defragged)},
		},
		Notes: []string{fmt.Sprintf("%d live extents, %d relocations; logical PIDs (and Blob States) untouched",
			st.Mappings, st.Relocations)},
	}, nil
}
