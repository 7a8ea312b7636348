package extent

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"blobdb/internal/storage"
)

// ErrFull is returned when the allocator cannot satisfy a request.
var ErrFull = errors.New("extent: allocator full")

// Allocator hands out extents from a contiguous page region of the device.
//
// Because tier sizes are static, deleted extents go onto a simple per-tier
// free list and later allocations of the same tier pop them in O(1)
// (§III-D "BLOB deletion and extent reusability"). Tail extents have
// arbitrary sizes and use a best-fit free list with remainder splitting.
// The two lists are one free space: a tier allocation with no same-tier
// entry carves a best fit from the tail list, and a tail with no fitting
// tail entry carves the smallest freed tier extent that holds it, before
// either bumps the high-water mark. The design goal demonstrated by
// Figure 11 is that recycling stays cheap and effective even at high
// storage utilization.
type Allocator struct {
	tiers *TierTable

	mu        sync.Mutex
	start     storage.PID // inclusive start of the region
	next      storage.PID // bump pointer for fresh allocations
	end       storage.PID // exclusive end of the region
	free      [][]storage.PID
	tailFree  []Extent // sorted by Pages, then PID
	livePages uint64   // pages currently allocated to callers
	freePages uint64   // pages parked on free lists

	allocs     uint64 // total extent allocations served
	reuses     uint64 // allocations served from a free list
	tailAllocs uint64
	tailReuses uint64
}

// NewAllocator creates an allocator over device pages [start, end).
func NewAllocator(tiers *TierTable, start, end storage.PID) *Allocator {
	if start > end {
		panic("extent: start > end")
	}
	return &Allocator{
		tiers: tiers,
		start: start,
		next:  start,
		end:   end,
		free:  make([][]storage.PID, tiers.NumTiers()),
	}
}

// Tiers returns the tier table this allocator sizes extents with.
func (a *Allocator) Tiers() *TierTable { return a.tiers }

// HWM returns the bump pointer: no page at or beyond it has ever been
// handed out. Recorded in checkpoints for recovery.
func (a *Allocator) HWM() storage.PID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// AllocExtent allocates one extent of the given tier: a freed extent of
// the same tier, else a best-fit carve from the tail free list (where
// Rebuild puts every gap after a restart), else fresh space.
func (a *Allocator) AllocExtent(tier int) (storage.PID, error) {
	size := a.tiers.Size(tier)
	a.mu.Lock()
	defer a.mu.Unlock()
	if tier < len(a.free) {
		if l := a.free[tier]; len(l) > 0 {
			pid := l[len(l)-1]
			a.free[tier] = l[:len(l)-1]
			a.freePages -= size
			a.livePages += size
			a.allocs++
			a.reuses++
			return pid, nil
		}
	}
	if pid, ok := a.carveTailLocked(size); ok {
		a.allocs++
		a.reuses++
		return pid, nil
	}
	pid, err := a.bump(size)
	if err != nil {
		return storage.InvalidPID, err
	}
	a.allocs++
	return pid, nil
}

// FreeExtent returns an extent of the given tier to its free list. Callers
// (the transaction layer) defer this to commit time per §III-D.
func (a *Allocator) FreeExtent(tier int, pid storage.PID) {
	size := a.tiers.Size(tier)
	a.mu.Lock()
	defer a.mu.Unlock()
	for tier >= len(a.free) {
		a.free = append(a.free, nil)
	}
	a.free[tier] = append(a.free[tier], pid)
	a.freePages += size
	a.livePages -= size
}

// AllocTail allocates an arbitrarily-sized tail extent: a best fit from
// the tail free list, else a carve from the smallest freed tier extent
// that holds it, else fresh space. A carve's remainder goes back onto the
// tail free list.
func (a *Allocator) AllocTail(npages uint64) (storage.PID, error) {
	if npages == 0 {
		return storage.InvalidPID, errors.New("extent: zero-page tail")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	pid, ok := a.carveTailLocked(npages)
	if !ok {
		pid, ok = a.carveTierLocked(npages)
	}
	if ok {
		a.tailAllocs++
		a.tailReuses++
		return pid, nil
	}
	pid, err := a.bump(npages)
	if err != nil {
		return storage.InvalidPID, err
	}
	a.tailAllocs++
	return pid, nil
}

// carveTailLocked takes npages from the best-fitting tail free-list entry
// (the first with Pages >= npages; tailFree is sorted by Pages).
func (a *Allocator) carveTailLocked(npages uint64) (storage.PID, bool) {
	i := sort.Search(len(a.tailFree), func(i int) bool { return a.tailFree[i].Pages >= npages })
	if i == len(a.tailFree) {
		return storage.InvalidPID, false
	}
	e := a.tailFree[i]
	a.tailFree = append(a.tailFree[:i], a.tailFree[i+1:]...)
	return a.takeLocked(e, npages), true
}

// carveTierLocked takes npages from a freed extent of the smallest tier
// that holds them.
func (a *Allocator) carveTierLocked(npages uint64) (storage.PID, bool) {
	for tier, l := range a.free {
		size := a.tiers.Size(tier)
		if size < npages || len(l) == 0 {
			continue
		}
		pid := l[len(l)-1]
		a.free[tier] = l[:len(l)-1]
		return a.takeLocked(Extent{PID: pid, Pages: size}, npages), true
	}
	return storage.InvalidPID, false
}

// takeLocked hands out the first npages of e, a free entry its caller has
// just removed from its list; the rest goes onto the tail free list.
func (a *Allocator) takeLocked(e Extent, npages uint64) storage.PID {
	a.freePages -= e.Pages
	if e.Pages > npages {
		a.insertTailLocked(Extent{PID: e.PID + storage.PID(npages), Pages: e.Pages - npages})
		a.freePages += e.Pages - npages
	}
	a.livePages += npages
	return e.PID
}

// FreeTail returns a tail extent to the tail free list.
func (a *Allocator) FreeTail(pid storage.PID, npages uint64) {
	if npages == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.insertTailLocked(Extent{PID: pid, Pages: npages})
	a.freePages += npages
	a.livePages -= npages
}

// insertTailLocked keeps tailFree sorted by Pages and coalesces extents
// that are physically adjacent.
func (a *Allocator) insertTailLocked(e Extent) {
	// Try to coalesce with a physical neighbor (linear scan; the tail list
	// is small in practice since tails are one-per-blob).
	for i := range a.tailFree {
		f := a.tailFree[i]
		if f.PID+storage.PID(f.Pages) == e.PID {
			a.tailFree = append(a.tailFree[:i], a.tailFree[i+1:]...)
			a.insertTailLocked(Extent{PID: f.PID, Pages: f.Pages + e.Pages})
			return
		}
		if e.PID+storage.PID(e.Pages) == f.PID {
			a.tailFree = append(a.tailFree[:i], a.tailFree[i+1:]...)
			a.insertTailLocked(Extent{PID: e.PID, Pages: e.Pages + f.Pages})
			return
		}
	}
	i := sort.Search(len(a.tailFree), func(i int) bool {
		if a.tailFree[i].Pages != e.Pages {
			return a.tailFree[i].Pages > e.Pages
		}
		return a.tailFree[i].PID >= e.PID
	})
	a.tailFree = append(a.tailFree, Extent{})
	copy(a.tailFree[i+1:], a.tailFree[i:])
	a.tailFree[i] = e
}

func (a *Allocator) bump(npages uint64) (storage.PID, error) {
	if uint64(a.end-a.next) < npages {
		return storage.InvalidPID, fmt.Errorf("extent: need %d pages, %d left: %w",
			npages, a.end-a.next, ErrFull)
	}
	pid := a.next
	a.next += storage.PID(npages)
	a.livePages += npages
	return pid, nil
}

// AllocStats is a snapshot of allocator state.
type AllocStats struct {
	LivePages   uint64 // pages allocated to callers
	FreePages   uint64 // pages parked on free lists
	FreshPages  uint64 // pages never handed out
	Capacity    uint64 // total region pages
	Allocs      uint64 // extent allocations served
	Reuses      uint64 // allocations served from a free list
	TailAllocs  uint64
	TailReuses  uint64
	Utilization float64 // LivePages / Capacity
}

// Stats returns a snapshot of the allocator.
func (a *Allocator) Stats() AllocStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Every page between the region start and the bump pointer is either
	// live or on a free list, so live+free+fresh equals the region size.
	total := a.livePages + a.freePages + uint64(a.end-a.next)
	s := AllocStats{
		LivePages:  a.livePages,
		FreePages:  a.freePages,
		FreshPages: uint64(a.end - a.next),
		Capacity:   total,
		Allocs:     a.allocs,
		Reuses:     a.reuses,
		TailAllocs: a.tailAllocs,
		TailReuses: a.tailReuses,
	}
	if total > 0 {
		s.Utilization = float64(a.livePages) / float64(total)
	}
	return s
}
