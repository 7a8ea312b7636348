package extent

import (
	"blobdb/internal/storage"
)

// Online defragmentation support.
//
// Long-running workloads with mixed blob sizes leave the heap region
// looking like swiss cheese: free extents strand between live ones, the
// bump pointer only ever grows, and Stats().Utilization understates how
// much device footprint the live data actually needs. The defragmenter
// (internal/maint) compacts by relocating live extents into free slots at
// LOWER addresses, then retracting the bump pointer over the free space
// that accumulates at the top. These are the allocator-side primitives.

// AllocExtentBelow allocates one extent of the given tier strictly below
// the page address limit, reusing freed space only — it never bumps the
// high-water mark (that would be anti-compaction). It takes the
// lowest-addressed free entry below the limit that can hold the extent:
// a freed tier extent at least as large, or a tail free-list entry.
// Returns false when no free slot below the limit can hold the extent.
func (a *Allocator) AllocExtentBelow(tier int, limit storage.PID) (storage.PID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pid, ok := a.takeBelowLocked(a.tiers.Size(tier), limit)
	if ok {
		a.allocs++
		a.reuses++
	}
	return pid, ok
}

// AllocTailBelow is AllocExtentBelow for a tail extent of npages: the
// defragmenter moves tails too, or one at the top of the region would pin
// the high-water mark.
func (a *Allocator) AllocTailBelow(npages uint64, limit storage.PID) (storage.PID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pid, ok := a.takeBelowLocked(npages, limit)
	if ok {
		a.tailAllocs++
		a.tailReuses++
	}
	return pid, ok
}

// takeBelowLocked removes the lowest-addressed free entry below limit that
// holds npages and hands out its first npages pages. Free space never
// overlaps live extents, so an entry starting below the limit lies wholly
// below the relocation source.
func (a *Allocator) takeBelowLocked(npages uint64, limit storage.PID) (storage.PID, bool) {
	best, bestTier, bestIdx := storage.PID(0), 0, -1
	for tier, l := range a.free {
		if a.tiers.Size(tier) < npages {
			continue
		}
		for i, pid := range l {
			if pid < limit && (bestIdx < 0 || pid < best) {
				best, bestTier, bestIdx = pid, tier, i
			}
		}
	}
	for i, e := range a.tailFree {
		if e.PID < limit && e.Pages >= npages && (bestIdx < 0 || e.PID < best) {
			best, bestTier, bestIdx = e.PID, -1, i
		}
	}
	if bestIdx < 0 {
		return storage.InvalidPID, false
	}
	var e Extent
	if bestTier < 0 {
		e = a.tailFree[bestIdx]
		a.tailFree = append(a.tailFree[:bestIdx], a.tailFree[bestIdx+1:]...)
	} else {
		l := a.free[bestTier]
		e = Extent{PID: best, Pages: a.tiers.Size(bestTier)}
		a.free[bestTier] = append(l[:bestIdx], l[bestIdx+1:]...)
	}
	return a.takeLocked(e, npages), true
}

// ShrinkHWM retracts the bump pointer over free space that touches it:
// any free-list entry (tier or tail) ending exactly at the high-water
// mark is removed and its pages become fresh again. Repeats until no free
// extent abuts the mark. Returns the number of pages reclaimed. Run after
// relocation has emptied the top of the region.
func (a *Allocator) ShrinkHWM() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var reclaimed uint64
	for {
		retracted := false
		for tier := range a.free {
			size := a.tiers.Size(tier)
			for i, pid := range a.free[tier] {
				if pid+storage.PID(size) == a.next {
					l := a.free[tier]
					a.free[tier] = append(l[:i], l[i+1:]...)
					a.freePages -= size
					a.next = pid
					reclaimed += size
					retracted = true
					break
				}
			}
			if retracted {
				break
			}
		}
		if !retracted {
			for i, e := range a.tailFree {
				if e.PID+storage.PID(e.Pages) == a.next {
					a.tailFree = append(a.tailFree[:i], a.tailFree[i+1:]...)
					a.freePages -= e.Pages
					a.next = e.PID
					reclaimed += e.Pages
					retracted = true
					break
				}
			}
		}
		if !retracted {
			return reclaimed
		}
	}
}

// FragReport is a snapshot of heap-region fragmentation.
type FragReport struct {
	LivePages uint64 // pages allocated to callers
	FreePages uint64 // pages stranded on free lists
	SpanPages uint64 // region start .. bump pointer: the heap's footprint
	TierFree  []int  // free-list entries per tier
	TailFree  int    // tail free-list entries
	// Score is the dead fraction of the spanned footprint:
	// (SpanPages - LivePages) / SpanPages, in [0, 1]. A perfectly packed
	// heap scores 0; relocation plus ShrinkHWM strictly decreases it
	// whenever it moves an extent down and retracts the mark.
	Score float64
}

// FragStats reports the current fragmentation of the heap region.
func (a *Allocator) FragStats() FragReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := FragReport{
		LivePages: a.livePages,
		FreePages: a.freePages,
		TierFree:  make([]int, len(a.free)),
		TailFree:  len(a.tailFree),
	}
	if a.next > a.start {
		r.SpanPages = uint64(a.next - a.start)
	}
	for i, l := range a.free {
		r.TierFree[i] = len(l)
	}
	if r.SpanPages > 0 {
		r.Score = float64(r.SpanPages-r.LivePages) / float64(r.SpanPages)
	}
	return r
}
