package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestQuickExperiments runs the fast experiments end to end and sanity
// checks their headline orderings. The heavyweight figures are covered by
// the repository-root benchmarks (bench_test.go) and cmd/blobbench.
func TestQuickExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if len(r.Rows) != 11 {
		t.Errorf("fig5 has %d rows, want 11 systems", len(r.Rows))
	}

	r3, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r3.String())
	if miss := r3.Lookup("Blob State", "miss%"); miss != "0%" {
		t.Errorf("Blob State index miss = %s, want 0%%", miss)
	}
	if miss := r3.Lookup("1K Prefix", "miss%"); miss == "0%" || miss == "" {
		t.Errorf("prefix index miss = %s, want > 0%%", miss)
	}

	r1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) < 5 {
		t.Error("table1 incomplete")
	}

	ra, err := AblationTierSweep()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + ra.String())

	// ablation-aging: churn fragments the heap past the defragmenter's
	// default MinScore, the defragmenter moves extents and retracts the
	// high-water mark, and every relocated blob still matches its Blob
	// State with the refcount ledger intact.
	run, err := runAging()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + run.result().String())
	if run.churned.Score < 0.15 {
		t.Errorf("churned score %.3f, want >= 0.15", run.churned.Score)
	}
	if run.moved == 0 || run.packed.Score >= run.churned.Score {
		t.Errorf("defragmenter moved %d extents, score %.3f -> %.3f; want moves and a falling score",
			run.moved, run.churned.Score, run.packed.Score)
	}
	if run.reclaimed == 0 {
		t.Error("defragmenter reclaimed no pages")
	}
	if err := run.sys.DB.VerifyContent(); err != nil {
		t.Errorf("content after relocation: %v", err)
	}
	if err := run.sys.DB.CheckLedger(); err != nil {
		t.Errorf("ledger after relocation: %v", err)
	}
}

// TestPhyslogWriteAmplification drives identical puts through the Our and
// Our.physlog adapters: the engine writes each blob byte once (single
// flush, §III-C), the physical-logging baseline twice (log and extent).
func TestPhyslogWriteAmplification(t *testing.T) {
	for _, tc := range []struct {
		v        OurVariant
		min, max float64
	}{
		{VariantOur, 0.95, 1.1},
		{VariantOurPhyslog, 1.8, 2.3},
	} {
		sys, err := NewOurSystem(tc.v, OurOptions{DevPages: 1 << 14, PoolPages: 1 << 12, LogPages: 1 << 11})
		if err != nil {
			t.Fatal(err)
		}
		var logical int64
		for i := 0; i < 20; i++ {
			content := bytes.Repeat([]byte{byte(i)}, 100<<10)
			if err := sys.Put(nil, fmt.Sprintf("k%02d", i), content); err != nil {
				t.Fatal(err)
			}
			logical += int64(len(content))
		}
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		wa := sys.DB.WriteAmplification(logical)
		t.Logf("%s: write amplification %.3f", sys.Name(), wa)
		if wa < tc.min || wa > tc.max {
			t.Errorf("%s write amplification = %.3f, want in [%.2f, %.2f]", sys.Name(), wa, tc.min, tc.max)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	want := []string{"fig5", "fig6-100KB", "fig6-10MB", "fig6-4KB-10MB", "fig6-1GB",
		"fig7", "fig8", "fig9", "fig10", "fig11", "table1", "table2", "table3", "table4",
		"ablation-aging", "ablation-tail", "ablation-update", "ablation-tiers"}
	for _, id := range want {
		if exps[id] == nil {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		ID: "x", Title: "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"row1", "1"}, {"row2", "22"}},
		Notes:  []string{"n"},
	}
	out := r.String()
	for _, want := range []string{"== x: T ==", "row1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
	if got := r.Lookup("row2", "bb"); got != "22" {
		t.Errorf("Lookup = %q", got)
	}
	if got := r.Lookup("nope", "bb"); got != "" {
		t.Errorf("Lookup missing row = %q", got)
	}
	if got := r.Lookup("row1", "nope"); got != "" {
		t.Errorf("Lookup missing col = %q", got)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtTput(1500000) != "1.50M" || fmtTput(2500) != "2.5k" || fmtTput(99) != "99.0" {
		t.Error("fmtTput formats wrong")
	}
	if fmtBytes(10<<50) != "10PB" || fmtBytes(3<<40) != "3TB" {
		t.Error("fmtBytes formats wrong")
	}
}
