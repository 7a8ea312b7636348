package extent

import (
	"errors"
	"math/rand"
	"testing"

	"blobdb/internal/storage"
)

func newTestAllocator(pages uint64) *Allocator {
	return NewAllocator(NewTierTable(10), 0, storage.PID(pages))
}

func TestAllocFreshSequential(t *testing.T) {
	a := newTestAllocator(1000)
	p0, err := a.AllocExtent(0) // 1 page
	if err != nil {
		t.Fatal(err)
	}
	p1, err := a.AllocExtent(1) // 2 pages
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 0 || p1 != 1 {
		t.Errorf("fresh allocations = %d, %d; want 0, 1", p0, p1)
	}
	s := a.Stats()
	if s.LivePages != 3 || s.FreshPages != 997 {
		t.Errorf("stats = %+v", s)
	}
}

func TestAllocReuse(t *testing.T) {
	a := newTestAllocator(1000)
	p, _ := a.AllocExtent(3) // 8 pages
	a.FreeExtent(3, p)
	s := a.Stats()
	if s.FreePages != 8 || s.LivePages != 0 {
		t.Fatalf("after free: %+v", s)
	}
	p2, err := a.AllocExtent(3)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Errorf("reuse returned %d, want %d", p2, p)
	}
	s = a.Stats()
	if s.Reuses != 1 {
		t.Errorf("Reuses = %d, want 1", s.Reuses)
	}
	if s.FreePages != 0 || s.LivePages != 8 {
		t.Errorf("after reuse: %+v", s)
	}
}

func TestAllocFull(t *testing.T) {
	a := newTestAllocator(10)
	if _, err := a.AllocExtent(9); !errors.Is(err, ErrFull) { // tier 9 = 512 pages
		t.Errorf("oversized alloc = %v, want ErrFull", err)
	}
	// Fill exactly.
	for i := 0; i < 10; i++ {
		if _, err := a.AllocExtent(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.AllocExtent(0); !errors.Is(err, ErrFull) {
		t.Errorf("alloc past capacity = %v, want ErrFull", err)
	}
}

func TestTailAllocBestFit(t *testing.T) {
	a := newTestAllocator(1000)
	p5, _ := a.AllocTail(5)
	sep1, _ := a.AllocTail(1) // separator so the freed tails cannot coalesce
	p9, _ := a.AllocTail(9)
	_, _ = a.AllocTail(1) // separator against the fresh region
	_ = sep1
	a.FreeTail(p5, 5)
	a.FreeTail(p9, 9)
	// Request 7 pages: best fit is the 9-page extent; remainder 2 splits.
	got, err := a.AllocTail(7)
	if err != nil {
		t.Fatal(err)
	}
	if got != p9 {
		t.Errorf("best fit returned %d, want %d (the 9-page extent)", got, p9)
	}
	s := a.Stats()
	if s.FreePages != 5+2 {
		t.Errorf("FreePages = %d, want 7 (5-page extent + 2-page remainder)", s.FreePages)
	}
}

func TestTailCoalescing(t *testing.T) {
	a := newTestAllocator(1000)
	p, _ := a.AllocTail(10) // pages [0,10)
	// Free in two halves; they must coalesce back into one 10-page extent.
	a.FreeTail(p, 4)
	a.FreeTail(p+4, 6)
	got, err := a.AllocTail(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("coalesced alloc = %d, want %d", got, p)
	}
}

func TestTailZeroPages(t *testing.T) {
	a := newTestAllocator(100)
	if _, err := a.AllocTail(0); err == nil {
		t.Error("AllocTail(0) should fail")
	}
	a.FreeTail(0, 0) // must be a no-op
	if s := a.Stats(); s.FreePages != 0 {
		t.Error("FreeTail(0 pages) should be a no-op")
	}
}

// TestAllocatorPartitionInvariant drives random alloc/free traffic and
// checks that live + free + fresh always equals the region capacity and
// that no two live extents overlap.
func TestAllocatorPartitionInvariant(t *testing.T) {
	const capacity = 200_000
	a := newTestAllocator(capacity)
	tt := a.Tiers()
	rng := rand.New(rand.NewSource(99))

	type live struct {
		pid  storage.PID
		tier int
		tail uint64 // >0 means tail extent of this size
	}
	var lives []live

	checkNoOverlap := func() {
		type span struct{ lo, hi uint64 }
		spans := make([]span, 0, len(lives))
		for _, l := range lives {
			n := l.tail
			if n == 0 {
				n = tt.Size(l.tier)
			}
			spans = append(spans, span{uint64(l.pid), uint64(l.pid) + n})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					t.Fatalf("live extents overlap: %+v and %+v", spans[i], spans[j])
				}
			}
		}
	}

	for step := 0; step < 3000; step++ {
		if rng.Intn(100) < 60 || len(lives) == 0 {
			if rng.Intn(4) == 0 {
				n := uint64(rng.Intn(64) + 1)
				pid, err := a.AllocTail(n)
				if err != nil {
					continue
				}
				lives = append(lives, live{pid, -1, n})
			} else {
				tier := rng.Intn(8)
				pid, err := a.AllocExtent(tier)
				if err != nil {
					continue
				}
				lives = append(lives, live{pid, tier, 0})
			}
		} else {
			i := rng.Intn(len(lives))
			l := lives[i]
			if l.tail > 0 {
				a.FreeTail(l.pid, l.tail)
			} else {
				a.FreeExtent(l.tier, l.pid)
			}
			lives[i] = lives[len(lives)-1]
			lives = lives[:len(lives)-1]
		}
		s := a.Stats()
		if s.LivePages+s.FreePages+s.FreshPages != capacity {
			t.Fatalf("step %d: partition broken: live=%d free=%d fresh=%d cap=%d",
				step, s.LivePages, s.FreePages, s.FreshPages, capacity)
		}
		var wantLive uint64
		for _, l := range lives {
			if l.tail > 0 {
				wantLive += l.tail
			} else {
				wantLive += tt.Size(l.tier)
			}
		}
		if s.LivePages != wantLive {
			t.Fatalf("step %d: LivePages=%d, want %d", step, s.LivePages, wantLive)
		}
		if step%500 == 0 {
			checkNoOverlap()
		}
	}
	checkNoOverlap()
}

// TestHighUtilizationReuse models Figure 11's claim: at high utilization
// the allocator keeps serving allocations from free lists without
// degradation.
func TestHighUtilizationReuse(t *testing.T) {
	const capacity = 1 << 20 // pages
	a := newTestAllocator(capacity)
	rng := rand.New(rand.NewSource(5))
	type blob struct {
		slots []Slot
		pids  []storage.PID
	}
	var blobs []blob

	alloc := func() bool {
		npages := uint64(rng.Intn(2500) + 250) // ~1-10MB at 4KB
		slots, _ := a.Tiers().Plan(npages, false)
		b := blob{slots: slots}
		for _, s := range slots {
			pid, err := a.AllocExtent(s.Tier)
			if err != nil {
				// Roll back partial allocation.
				for i, p := range b.pids {
					a.FreeExtent(b.slots[i].Tier, p)
				}
				return false
			}
			b.pids = append(b.pids, pid)
		}
		blobs = append(blobs, b)
		return true
	}
	free := func() {
		if len(blobs) == 0 {
			return
		}
		i := rng.Intn(len(blobs))
		for j, p := range blobs[i].pids {
			a.FreeExtent(blobs[i].slots[j].Tier, p)
		}
		blobs[i] = blobs[len(blobs)-1]
		blobs = blobs[:len(blobs)-1]
	}

	fails := 0
	for step := 0; step < 20000; step++ {
		if rng.Intn(100) < 80 {
			if !alloc() {
				fails++
				free() // make room like the benchmark's delete op
			}
		} else {
			free()
		}
	}
	s := a.Stats()
	if s.Reuses == 0 {
		t.Error("expected free-list reuse under churn")
	}
	// The allocator must reach high utilization before failing.
	if s.Utilization < 0.5 && fails > 0 {
		t.Errorf("failed allocations at utilization %.2f", s.Utilization)
	}
}

// TestTailCarvesFreedTierExtent: with no fitting tail entry, a tail takes
// the front of the smallest freed tier extent that holds it instead of
// bumping the high-water mark.
func TestTailCarvesFreedTierExtent(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 0, 10000)
	tt := a.Tiers()
	small, _ := a.AllocExtent(1)
	big, _ := a.AllocExtent(3)
	_, _ = a.AllocTail(1) // keeps the freed extents off the fresh region
	a.FreeExtent(3, big)
	a.FreeExtent(1, small)
	hwm := a.HWM()
	n := tt.Size(1) - 1
	pid, err := a.AllocTail(n)
	if err != nil {
		t.Fatal(err)
	}
	if pid != small {
		t.Errorf("tail of %d pages at %d; want the smallest freed tier extent at %d", n, pid, small)
	}
	if a.HWM() != hwm {
		t.Errorf("HWM moved from %d to %d", hwm, a.HWM())
	}
	// The one-page remainder now serves a one-page tail.
	if pid, _ := a.AllocTail(1); pid != small+storage.PID(n) {
		t.Errorf("remainder not reused: got %d, want %d", pid, small+storage.PID(n))
	}
}
