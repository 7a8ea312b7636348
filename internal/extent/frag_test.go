package extent

import (
	"testing"

	"blobdb/internal/storage"
)

func TestAllocExtentBelow(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 100, 10000)
	tt := a.Tiers()
	size := tt.Size(0)
	// Allocate five tier-0 extents, free the first and third.
	pids := make([]storage.PID, 5)
	for i := range pids {
		p, err := a.AllocExtent(0)
		if err != nil {
			t.Fatal(err)
		}
		pids[i] = p
	}
	a.FreeExtent(0, pids[0])
	a.FreeExtent(0, pids[2])

	// A request below pids[4] must take the LOWEST free slot: pids[0].
	got, ok := a.AllocExtentBelow(0, pids[4])
	if !ok || got != pids[0] {
		t.Fatalf("AllocExtentBelow = %d, %v; want %d", got, ok, pids[0])
	}
	// Next one below pids[4]: pids[2].
	got, ok = a.AllocExtentBelow(0, pids[4])
	if !ok || got != pids[2] {
		t.Fatalf("AllocExtentBelow = %d, %v; want %d", got, ok, pids[2])
	}
	// Nothing free below anymore.
	if _, ok := a.AllocExtentBelow(0, pids[4]); ok {
		t.Fatal("AllocExtentBelow succeeded with no free slot below limit")
	}
	// It must never bump the high-water mark.
	if a.HWM() != pids[4]+storage.PID(size) {
		t.Errorf("HWM moved to %d", a.HWM())
	}
}

func TestAllocExtentBelowFromTailList(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 100, 10000)
	size := a.Tiers().Size(1)
	// A freed tail region below a live tier extent serves tier requests too.
	tail, err := a.AllocTail(size + 3)
	if err != nil {
		t.Fatal(err)
	}
	top, err := a.AllocExtent(1)
	if err != nil {
		t.Fatal(err)
	}
	a.FreeTail(tail, size+3)
	got, ok := a.AllocExtentBelow(1, top)
	if !ok || got != tail {
		t.Fatalf("AllocExtentBelow = %d, %v; want tail carve at %d", got, ok, tail)
	}
}

func TestShrinkHWM(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 100, 10000)
	size := a.Tiers().Size(0)
	p0, _ := a.AllocExtent(0)
	p1, _ := a.AllocExtent(0)
	p2, _ := a.AllocExtent(0)
	_ = p0
	hwm := a.HWM()
	// Free the top two: ShrinkHWM retracts over both, stops at p0's end.
	a.FreeExtent(0, p2)
	a.FreeExtent(0, p1)
	if got := a.ShrinkHWM(); got != 2*size {
		t.Fatalf("ShrinkHWM = %d, want %d", got, 2*size)
	}
	if a.HWM() != hwm-storage.PID(2*size) {
		t.Errorf("HWM = %d, want %d", a.HWM(), hwm-storage.PID(2*size))
	}
	// Idempotent when nothing abuts the mark.
	if got := a.ShrinkHWM(); got != 0 {
		t.Errorf("second ShrinkHWM = %d, want 0", got)
	}
	s := a.Stats()
	if s.FreePages != 0 {
		t.Errorf("retracted pages still counted free: %+v", s)
	}
}

func TestFragStatsScore(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 100, 10000)
	if got := a.FragStats().Score; got != 0 {
		t.Errorf("empty allocator score = %v", got)
	}
	p0, _ := a.AllocExtent(0)
	p1, _ := a.AllocExtent(0)
	_ = p1
	// Free the BOTTOM extent: a hole the bump pointer cannot retract over.
	a.FreeExtent(0, p0)
	fs := a.FragStats()
	if fs.Score != 0.5 {
		t.Errorf("score = %v, want 0.5 (half the span is dead)", fs.Score)
	}
	if fs.TierFree[0] != 1 {
		t.Errorf("TierFree = %v", fs.TierFree)
	}
}

// TestAllocTailBelow: a tail moves down into the lowest free space below
// it that holds it — here a freed tier extent, whose remainder stays free.
func TestAllocTailBelow(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 100, 10000)
	size := a.Tiers().Size(2)
	low, _ := a.AllocExtent(2)
	mid, _ := a.AllocTail(3)
	top, _ := a.AllocTail(size - 1)
	a.FreeExtent(2, low)
	a.FreeTail(mid, 3)
	if _, ok := a.AllocTailBelow(size+1, top); ok {
		t.Fatal("AllocTailBelow took an entry too small for the tail")
	}
	got, ok := a.AllocTailBelow(size-1, top)
	if !ok || got != low {
		t.Fatalf("AllocTailBelow = %d, %v; want the freed tier extent at %d", got, ok, low)
	}
	if s := a.Stats(); s.FreePages != 3+1 || s.LivePages != 2*(size-1) {
		t.Errorf("stats = %+v; want the 1-page remainder and the 3-page tail free", s)
	}
	if a.HWM() != top+storage.PID(size-1) {
		t.Errorf("HWM moved to %d", a.HWM())
	}
}
