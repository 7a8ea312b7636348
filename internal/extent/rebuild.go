package extent

import (
	"fmt"
	"sort"

	"blobdb/internal/storage"
)

// Rebuild reconstructs the allocator after recovery: live lists the extents
// referenced by surviving Blob States, and hwm is the high-water mark of
// the bump pointer before the crash.
//
// Free space between live extents cannot be reattributed to tiers (tier
// membership of a freed extent is not recorded on the device), so the
// complement gaps are coalesced onto the tail free list, where tail
// allocations and tier allocations (AllocExtent carves a best fit from it
// before bumping) both reuse them. The bump pointer is restored to hwm so
// untouched space stays fresh.
func (a *Allocator) Rebuild(hwm storage.PID, live []Extent) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if hwm > a.end {
		return fmt.Errorf("extent: rebuild hwm %d beyond region end %d", hwm, a.end)
	}
	sorted := append([]Extent(nil), live...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].PID < sorted[j].PID })
	// Reset state.
	a.free = make([][]storage.PID, a.tiers.NumTiers())
	a.tailFree = nil
	a.livePages = 0
	a.freePages = 0
	if hwm < a.start {
		hwm = a.start
	}
	a.next = hwm
	pos := a.start
	for _, e := range sorted {
		if e.PID < pos {
			return fmt.Errorf("extent: rebuild: live extents overlap at %d", e.PID)
		}
		if e.PID+storage.PID(e.Pages) > hwm {
			return fmt.Errorf("extent: rebuild: live extent %d+%d beyond hwm %d", e.PID, e.Pages, hwm)
		}
		if gap := uint64(e.PID - pos); gap > 0 {
			a.tailFree = append(a.tailFree, Extent{PID: pos, Pages: gap})
			a.freePages += gap
		}
		a.livePages += e.Pages
		pos = e.PID + storage.PID(e.Pages)
	}
	if gap := uint64(hwm - pos); gap > 0 {
		a.tailFree = append(a.tailFree, Extent{PID: pos, Pages: gap})
		a.freePages += gap
	}
	// Gaps lie between live extents, so none is adjacent to another and
	// there is nothing to coalesce: one sort puts the list in its order.
	sort.Slice(a.tailFree, func(i, j int) bool {
		if a.tailFree[i].Pages != a.tailFree[j].Pages {
			return a.tailFree[i].Pages < a.tailFree[j].Pages
		}
		return a.tailFree[i].PID < a.tailFree[j].PID
	})
	return nil
}
