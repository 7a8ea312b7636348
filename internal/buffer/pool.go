// Package buffer implements the extent buffer pool and the two buffer
// managers the paper compares (§IV, Figure 10). They differ only in where
// a frame's bytes live, so one pool (VMPool) runs both over a frame layout:
//
//   - NewVMPool, modeled on vmcache+exmap: extents occupy contiguous frames
//     in one slab, so a whole extent is a single contiguous byte range,
//     needs one translation, and moves with one device command;
//     multi-extent BLOBs are presented as one logical buffer through
//     aliasing areas (alias.go).
//   - NewHTPool, the traditional hash-table buffer pool baseline ("Our.ht"):
//     page-granular frames scattered in memory and moved one device command
//     per page, so reading a BLOB requires materializing it with an extra
//     allocate+copy.
//
// The shared pool implements extent-granular (coarse-grained) latching:
// one loader per extent, concurrent fixers wait (§III-G), size-weighted
// random eviction with lock-dropped write-back, and the prevent_evict flag
// that protects extents between allocation and their commit-time flush
// (§III-C).
package buffer

import (
	"errors"
	"sync"
	"sync/atomic"

	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// ErrPoolFull is returned when the pool cannot make room for a fix.
var ErrPoolFull = errors.New("buffer: pool full (all extents pinned or evict-protected)")

// Frame is a pinned, resident extent. Release it exactly once.
type Frame struct {
	HeadPID storage.PID
	// NPages is the number of resident pages: the extent's page count, or
	// for a prefix fix (ExtentSpec.Used) at least the pages it asked for.
	NPages int

	data  []byte   // contiguous frame memory (slab layout), else nil
	pages [][]byte // page-granular frames (page layout), else nil

	pageSize int
	entry    *entry
	pool     *VMPool
}

// Contiguous returns the extent as one contiguous byte slice, or nil if
// the pool's layout scatters extents over page frames (NewHTPool).
func (f *Frame) Contiguous() []byte { return f.data }

// Spans returns the extent memory as a list of byte ranges: a single span
// in the slab layout, one span per page in the page layout.
func (f *Frame) Spans() [][]byte {
	if f.data != nil {
		return [][]byte{f.data}
	}
	return f.pages
}

// WriteAt copies p into the extent at byte offset off and marks the touched
// pages dirty. It panics if the write exceeds the extent.
func (f *Frame) WriteAt(p []byte, off int) {
	if off < 0 || off+len(p) > f.NPages*f.pageSize {
		panic("buffer: WriteAt out of extent bounds")
	}
	if f.data != nil {
		copy(f.data[off:], p)
	} else {
		rem := p
		pos := off
		for len(rem) > 0 {
			pg := pos / f.pageSize
			in := pos % f.pageSize
			n := copy(f.pages[pg][in:], rem)
			rem = rem[n:]
			pos += n
		}
	}
	f.entry.markDirty(off/f.pageSize, (off+len(p)+f.pageSize-1)/f.pageSize)
}

// ReadAt copies up to len(p) bytes from the extent at byte offset off.
func (f *Frame) ReadAt(p []byte, off int) int {
	max := f.NPages*f.pageSize - off
	if max <= 0 {
		return 0
	}
	if len(p) > max {
		p = p[:max]
	}
	if f.data != nil {
		return copy(p, f.data[off:])
	}
	total := 0
	pos := off
	for total < len(p) {
		pg := pos / f.pageSize
		in := pos % f.pageSize
		n := copy(p[total:], f.pages[pg][in:])
		total += n
		pos += n
	}
	return total
}

// MarkDirty marks pages [fromPage, toPage) of the extent dirty.
func (f *Frame) MarkDirty(fromPage, toPage int) { f.entry.markDirty(fromPage, toPage) }

// SetPreventEvict toggles the extent's prevent_evict flag (§III-C).
func (f *Frame) SetPreventEvict(v bool) { f.entry.preventEvict.Store(v) }

// Release unpins the frame.
func (f *Frame) Release() { f.pool.release(f) }

// entry is the per-extent bookkeeping of the pool. Access to the
// extent content is coarse-grained: the entry is created in "loading" state
// and concurrent fixers wait on the loaded channel — only one worker issues
// the device read (§III-G).
type entry struct {
	headPID  storage.PID
	npages   int // pages placed and loaded: the whole extent or a prefix of it
	extPages int // the extent's page count; npages < extPages marks a prefix entry

	frameOff int   // slab layout: frame offset of the extent in the slab
	pages    []int // page layout: frame index per extent page

	pins         atomic.Int32
	preventEvict atomic.Bool
	loaded       chan struct{} // closed once content is available
	loadErr      error         // set before loaded is closed if the read failed

	// Dirty page range within the extent; dmu guards it because content
	// writers and the flusher run concurrently.
	dmu              sync.Mutex
	dirtyLo, dirtyHi int // dirty pages are [dirtyLo, dirtyHi); lo==hi means clean
}

// evictClaimed is the pin-count sentinel an eviction installs with a CAS
// from zero. While it is set no fixer can pin the entry, so the frame
// content is stable and the eviction may write it back with every pool
// lock dropped ("victim claimed, lock dropped, write, reconfirm").
const evictClaimed = -1 << 20

// tryPin pins the entry unless an eviction has claimed it.
func (e *entry) tryPin() bool {
	for {
		v := e.pins.Load()
		if v < 0 {
			return false
		}
		if e.pins.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// claimEvict claims an unpinned entry for eviction; after it succeeds no
// new pin can be taken until unclaimEvict or removal.
func (e *entry) claimEvict() bool { return e.pins.CompareAndSwap(0, evictClaimed) }

// unclaimEvict aborts a claim (write-back failed), making the entry
// fixable again.
func (e *entry) unclaimEvict() { e.pins.Store(0) }

// isLoaded reports whether the content (or a load error) is published.
func (e *entry) isLoaded() bool {
	select {
	case <-e.loaded:
		return true
	default:
		return false
	}
}

func (e *entry) markDirty(fromPage, toPage int) {
	if e.npages != e.extPages {
		// Writers fix the whole extent, so a prefix entry is never dirty
		// and an upgrade can drop it without write-back.
		panic("buffer: write to a prefix entry")
	}
	if fromPage < 0 {
		fromPage = 0
	}
	if toPage > e.npages {
		toPage = e.npages
	}
	if fromPage >= toPage {
		return
	}
	e.dmu.Lock()
	defer e.dmu.Unlock()
	if e.dirtyLo == e.dirtyHi { // was clean
		e.dirtyLo, e.dirtyHi = fromPage, toPage
		return
	}
	if fromPage < e.dirtyLo {
		e.dirtyLo = fromPage
	}
	if toPage > e.dirtyHi {
		e.dirtyHi = toPage
	}
}

func (e *entry) dirty() bool {
	e.dmu.Lock()
	defer e.dmu.Unlock()
	return e.dirtyLo != e.dirtyHi
}

// takeDirty returns the dirty range and marks the extent clean.
func (e *entry) takeDirty() (lo, hi int) {
	e.dmu.Lock()
	defer e.dmu.Unlock()
	lo, hi = e.dirtyLo, e.dirtyHi
	e.dirtyLo, e.dirtyHi = 0, 0
	return lo, hi
}

// Stats counts pool traffic.
type Stats struct {
	Hits       atomic.Int64
	Misses     atomic.Int64
	Evictions  atomic.Int64
	Writebacks atomic.Int64

	// Batched read path (§III-D) counters.
	FixBatches      atomic.Int64 // FixExtents calls that issued a device load
	FixBatchPages   atomic.Int64 // pages loaded through batch submissions
	ReadVecSegments atomic.Int64 // segments across all batch submissions
	Coalesces       atomic.Int64 // fixes that piggybacked on another worker's in-flight load
	LockWaitNs      atomic.Int64 // cumulative wait for the structural pool mutex
	Upgrades        atomic.Int64 // prefix entries dropped for a fix that needed more pages
}

// StatsSnapshot is a point-in-time copy of pool counters.
type StatsSnapshot struct {
	Hits, Misses, Evictions, Writebacks int64

	FixBatches      int64
	FixBatchPages   int64
	ReadVecSegments int64
	Coalesces       int64
	LockWaitNs      int64
	Upgrades        int64
}

// Snapshot returns current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Hits:            s.Hits.Load(),
		Misses:          s.Misses.Load(),
		Evictions:       s.Evictions.Load(),
		Writebacks:      s.Writebacks.Load(),
		FixBatches:      s.FixBatches.Load(),
		FixBatchPages:   s.FixBatchPages.Load(),
		ReadVecSegments: s.ReadVecSegments.Load(),
		Coalesces:       s.Coalesces.Load(),
		LockWaitNs:      s.LockWaitNs.Load(),
		Upgrades:        s.Upgrades.Load(),
	}
}

// ExtentSpec names one extent of a BLOB for a batched fix.
type ExtentSpec struct {
	PID    storage.PID
	NPages int // the extent's page count
	// Used is the number of leading pages the caller reads; 0 means all
	// NPages. A miss places and loads only those pages (a prefix entry);
	// a resident entry holding at least Used pages is a hit.
	Used int
}

// Pool is the buffer-manager interface the blob layer programs against.
type Pool interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// FixExtent pins the extent [pid, pid+npages) in memory, reading it
	// from the device if absent, and returns its frame. A resident prefix
	// entry of the extent is upgraded: the fix waits until nothing pins
	// the prefix, drops it, and loads the whole extent.
	FixExtent(m *simtime.Meter, pid storage.PID, npages int) (*Frame, error)
	// FixExtents pins all listed extents, classifying them as hit,
	// in-flight, or miss in one pass and loading every miss with a single
	// vectored device submission (§III-D: one I/O per BLOB read). A spec
	// with Used set loads only that prefix of its extent; a batch must not
	// list one extent twice with a larger Used the second time. On error
	// no frame stays pinned. Frames are returned in spec order.
	FixExtents(m *simtime.Meter, specs []ExtentSpec) ([]*Frame, error)
	// CreateExtent pins a newly allocated extent without reading the
	// device; the returned frame is zeroed, fully dirty, and evict-protected
	// (prevent_evict=true) until the caller flushes it.
	CreateExtent(m *simtime.Meter, pid storage.PID, npages int) (*Frame, error)
	// FlushExtent writes the extent's dirty pages to the device, marks it
	// clean, and clears prevent_evict. The frame stays pinned.
	FlushExtent(m *simtime.Meter, f *Frame) error
	// Drop removes an extent from the pool without writeback (used after
	// BLOB deletion). The extent must be unpinned.
	Drop(pid storage.PID)
	// EvictAll force-evicts every unpinned, unprotected extent, writing
	// back dirty ones (cold-cache experiments).
	EvictAll(m *simtime.Meter) error
	// ResidentPages reports the pages currently held in frames.
	ResidentPages() int
	// Stats exposes the pool counters.
	Stats() *Stats

	release(f *Frame)
}

// poolShards is the number of resident-map shards. Fixing a hot extent only
// takes its shard's RLock, so concurrent readers of disjoint BLOBs stop
// convoying on one global mutex.
const poolShards = 16

type poolShard struct {
	sync.RWMutex
	m map[storage.PID]*entry
}

// shardedResident maps head PIDs to entries across poolShards shards.
type shardedResident struct {
	shards [poolShards]poolShard
}

func (r *shardedResident) init() {
	for i := range r.shards {
		r.shards[i].m = make(map[storage.PID]*entry)
	}
}

func (r *shardedResident) shard(pid storage.PID) *poolShard {
	return &r.shards[int((uint64(pid)*0x9E3779B97F4A7C15)>>60)&(poolShards-1)]
}

// get returns the entry for pid, or nil. Safe for concurrent use.
func (r *shardedResident) get(pid storage.PID) *entry {
	sh := r.shard(pid)
	sh.RLock()
	e := sh.m[pid]
	sh.RUnlock()
	return e
}
