package extent

import (
	"math/rand"
	"sort"
	"testing"

	"blobdb/internal/storage"
)

func TestRebuildEmpty(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 100, 1000)
	if err := a.Rebuild(100, nil); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.LivePages != 0 || s.FreePages != 0 || s.FreshPages != 900 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRebuildWithLiveExtents(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 100, 1000)
	// Live extents at 150..160 and 300..308, hwm 400.
	live := []Extent{{PID: 300, Pages: 8}, {PID: 150, Pages: 10}}
	if err := a.Rebuild(400, live); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.LivePages != 18 {
		t.Errorf("LivePages = %d, want 18", s.LivePages)
	}
	// Gaps: [100,150)=50, [160,300)=140, [308,400)=92 -> 282 free pages.
	if s.FreePages != 282 {
		t.Errorf("FreePages = %d, want 282", s.FreePages)
	}
	if s.FreshPages != 600 {
		t.Errorf("FreshPages = %d, want 600", s.FreshPages)
	}
	// The gap space must be reusable via tail allocations.
	pid, err := a.AllocTail(140)
	if err != nil {
		t.Fatal(err)
	}
	if pid != 160 {
		t.Errorf("tail allocated at %d, want the 160 gap", pid)
	}
}

func TestRebuildRejectsOverlap(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 0, 1000)
	live := []Extent{{PID: 10, Pages: 10}, {PID: 15, Pages: 10}}
	if err := a.Rebuild(100, live); err == nil {
		t.Error("overlapping live extents must be rejected")
	}
}

func TestRebuildRejectsBeyondHWM(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 0, 1000)
	if err := a.Rebuild(50, []Extent{{PID: 45, Pages: 10}}); err == nil {
		t.Error("live extent beyond hwm must be rejected")
	}
	if err := a.Rebuild(2000, nil); err == nil {
		t.Error("hwm beyond region must be rejected")
	}
}

func TestRebuildThenAllocateRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		a := NewAllocator(NewTierTable(10), 0, 1<<16)
		// Random disjoint live set.
		var live []Extent
		pos := storage.PID(rng.Intn(100))
		for pos < 1<<15 {
			n := uint64(rng.Intn(64) + 1)
			live = append(live, Extent{PID: pos, Pages: n})
			pos += storage.PID(n) + storage.PID(rng.Intn(100)+1)
		}
		hwm := pos
		// Shuffle to prove order independence.
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		if err := a.Rebuild(hwm, live); err != nil {
			t.Fatal(err)
		}
		s := a.Stats()
		var wantLive uint64
		for _, e := range live {
			wantLive += e.Pages
		}
		if s.LivePages != wantLive {
			t.Fatalf("trial %d: LivePages=%d want %d", trial, s.LivePages, wantLive)
		}
		if s.LivePages+s.FreePages != uint64(hwm) {
			t.Fatalf("trial %d: live+free=%d, want hwm %d", trial, s.LivePages+s.FreePages, hwm)
		}
		// Fresh allocations must not overlap the live set.
		sort.Slice(live, func(i, j int) bool { return live[i].PID < live[j].PID })
		for i := 0; i < 50; i++ {
			tier := rng.Intn(6)
			pid, err := a.AllocExtent(tier)
			if err != nil {
				break
			}
			size := a.Tiers().Size(tier)
			for _, e := range live {
				lo, hi := uint64(e.PID), uint64(e.PID)+e.Pages
				if uint64(pid) < hi && lo < uint64(pid)+size {
					t.Fatalf("trial %d: allocation [%d,%d) overlaps live [%d,%d)",
						trial, pid, uint64(pid)+size, lo, hi)
				}
			}
		}
	}
}

// TestRebuildGapsServeTierAllocations: Rebuild puts every gap on the tail
// free list, and AllocExtent carves a best fit from it before bumping, so
// tier extents reuse free space after a restart and the high-water mark
// stays put.
func TestRebuildGapsServeTierAllocations(t *testing.T) {
	a := NewAllocator(NewTierTable(10), 100, 1000)
	size := a.Tiers().Size(1)
	// Gaps: [100,150) = 50 pages, [160,160+size+2), and the top one.
	live := []Extent{{PID: 150, Pages: 10}, {PID: 160 + storage.PID(size) + 2, Pages: 8}}
	hwm := storage.PID(400)
	if err := a.Rebuild(hwm, live); err != nil {
		t.Fatal(err)
	}
	pid, err := a.AllocExtent(1)
	if err != nil {
		t.Fatal(err)
	}
	if pid != 160 {
		t.Errorf("tier-1 extent (%d pages) at %d; want the best-fitting gap at 160", size, pid)
	}
	if a.HWM() != hwm {
		t.Errorf("HWM moved from %d to %d", hwm, a.HWM())
	}
	s := a.Stats()
	if s.Reuses != 1 || s.LivePages != 18+size || s.FreePages != 282-size {
		t.Errorf("stats = %+v; want 1 reuse, %d live, %d free", s, 18+size, 282-size)
	}
}
