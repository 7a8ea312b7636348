package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// VMPool is the extent buffer pool. Both buffer managers of §IV share it:
// NewVMPool places extents in a contiguous slab (vmcache+exmap, §IV-A),
// NewHTPool scatters them over page frames (the hash-table baseline
// "Our.ht"). Everything else — admission, extent latching, size-weighted
// eviction, write-back — is this one implementation.
//
// Concurrency: the resident map is sharded so hot fixes (hits) only touch
// one shard's RWMutex; the structural mutex mu guards the frame layout's
// placement state and the eviction bookkeeping. No device I/O ever happens
// under mu — eviction claims its victim via a pin-count CAS, drops the lock
// for the write-back, then reconfirms.
type VMPool struct {
	pageSize int
	numPages int // resident budget (the buffer pool size)
	dev      storage.Device
	layout   frameLayout

	resident shardedResident

	mu         sync.Mutex
	order      []storage.PID       // sampling population for eviction
	orderIdx   map[storage.PID]int // head PID -> index in order (O(1) removal)
	rng        *rand.Rand
	maxExtSize int // largest extent seen, for the eviction probability
	residentPg int

	stats Stats
}

// frameLayout is where a pool's frame bytes live — the one thing the two
// buffer managers differ in. place and free run under VMPool.mu; segs and
// view read only the entry, whose frame memory is fixed while it is pinned
// or claimed.
type frameLayout interface {
	// place assigns frame memory to e (headPID and npages set), reporting
	// false when nothing fits until an extent is evicted. An error refuses
	// the extent outright.
	place(e *entry) (bool, error)
	// free returns e's frame memory to the layout.
	free(e *entry)
	// segs appends the device segments covering pages [lo, hi) of e: one
	// per run of pages that is contiguous in frame memory.
	segs(dst []storage.Seg, e *entry, lo, hi int) []storage.Seg
	// missSegs turns freshly admitted entries into one batched read.
	missSegs(loads []*entry) []storage.Seg
	// view points f at e's frame memory.
	view(f *Frame)
}

// NewVMPool creates a vmcache-style pool of numPages resident frames over
// dev: an extent always occupies a contiguous frame range, so fixing it
// yields one byte range after one translation — the property the paper
// exploits for cheap BLOB reads.
func NewVMPool(dev storage.Device, numPages int) *VMPool {
	return newPool(dev, numPages, 42, newSlabLayout)
}

func newPool(dev storage.Device, numPages int, seed int64, layout func(pageSize, numPages int) frameLayout) *VMPool {
	if numPages <= 0 {
		panic("buffer: pool must have at least one page")
	}
	p := &VMPool{
		pageSize:   dev.PageSize(),
		numPages:   numPages,
		dev:        dev,
		layout:     layout(dev.PageSize(), numPages),
		orderIdx:   map[storage.PID]int{},
		rng:        rand.New(rand.NewSource(seed)),
		maxExtSize: 1,
	}
	p.resident.init()
	return p
}

// SetEvictionSeed reseeds the eviction-sampling rng. The default seed is
// fixed, but the sample sequence still depends on the call history; crash
// simulations reseed per schedule so eviction choices replay exactly.
func (p *VMPool) SetEvictionSeed(seed int64) {
	p.mu.Lock()
	p.rng = rand.New(rand.NewSource(seed))
	p.mu.Unlock()
}

// PageSize implements Pool.
func (p *VMPool) PageSize() int { return p.pageSize }

// Stats implements Pool.
func (p *VMPool) Stats() *Stats { return &p.stats }

// ResidentPages implements Pool.
func (p *VMPool) ResidentPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.residentPg
}

func (p *VMPool) frame(e *entry) *Frame {
	f := &Frame{HeadPID: e.headPID, NPages: e.npages, pageSize: p.pageSize, entry: e, pool: p}
	p.layout.view(f)
	return f
}

// FixExtent implements Pool.
func (p *VMPool) FixExtent(m *simtime.Meter, pid storage.PID, npages int) (*Frame, error) {
	e, fresh, err := p.admit(m, pid, npages, npages, true)
	if err != nil {
		return nil, err
	}
	if fresh {
		// This worker is the single loader (coarse-grained latching): one
		// read command per contiguous run of frame memory while others wait.
		for _, s := range p.layout.segs(nil, e, 0, npages) {
			if err = p.dev.ReadPages(m, s.PID, s.N, s.Buf); err != nil {
				break
			}
		}
		e.loadErr = err
		close(e.loaded)
	}
	if err := p.await(e); err != nil {
		p.unpin(e)
		return nil, err
	}
	return p.frame(e), nil
}

// await waits until e's content is loaded, counting a fix that piggybacks
// on another worker's in-flight load, and returns the load's error.
func (p *VMPool) await(e *entry) error {
	if !e.isLoaded() {
		p.stats.Coalesces.Add(1)
	}
	<-e.loaded
	return e.loadErr
}

// FixExtents implements Pool (§III-D: one vectored I/O per BLOB read). One
// classification pass admits every spec — hits pin immediately, misses are
// claimed in loading state — then all misses are loaded with a single
// vectored device submission, then in-flight entries loaded by other
// workers are awaited.
func (p *VMPool) FixExtents(m *simtime.Meter, specs []ExtentSpec) ([]*Frame, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	frames := make([]*Frame, 0, len(specs))
	var loads []*entry

	unwind := func() {
		for _, f := range frames {
			f.Release()
		}
	}

	// Pass 1: classify. admit never blocks on loaded, so duplicate specs
	// and contended extents cannot deadlock the batch — unless a duplicate
	// asks for more pages than an earlier spec of the same extent, whose
	// upgrade would wait on this batch's own pin.
	for _, sp := range specs {
		used := sp.Used
		if used == 0 {
			used = sp.NPages
		}
		e, fresh, err := p.admit(m, sp.PID, sp.NPages, used, len(loads) == 0)
		if err == errPrefixPinned {
			// Publish the loads this batch has claimed before waiting on
			// other workers' pins: a pin holder may be awaiting one of
			// them.
			err = p.loadMisses(m, loads)
			loads = nil
			if err == nil {
				e, fresh, err = p.admit(m, sp.PID, sp.NPages, used, true)
			}
		}
		if err != nil {
			// Entries we already claimed for loading still have waiters
			// parked on their channels; finish those loads regardless. A
			// read failure reaches them through loadErr; this caller
			// reports the admission error.
			_ = p.loadMisses(m, loads)
			unwind()
			return nil, err
		}
		if fresh {
			loads = append(loads, e)
		}
		frames = append(frames, p.frame(e))
	}

	// Pass 2: one vectored submission for every miss.
	if err := p.loadMisses(m, loads); err != nil {
		unwind()
		return nil, err
	}

	// Pass 3: wait for loads owned by other workers.
	for _, f := range frames {
		if err := p.await(f.entry); err != nil {
			unwind()
			return nil, err
		}
	}
	return frames, nil
}

// loadMisses reads all freshly claimed entries with one vectored
// submission and publishes them — or, if the read fails, publishes the
// failure to every waiter.
func (p *VMPool) loadMisses(m *simtime.Meter, loads []*entry) error {
	if len(loads) == 0 {
		return nil
	}
	segs := p.layout.missSegs(loads)
	err := storage.ReadVec(p.dev, m, segs)
	if err == nil {
		p.stats.FixBatches.Add(1)
		p.stats.ReadVecSegments.Add(int64(len(segs)))
		pages := 0
		for _, e := range loads {
			pages += e.npages
		}
		p.stats.FixBatchPages.Add(int64(pages))
	}
	for _, e := range loads {
		e.loadErr = err
		close(e.loaded)
	}
	return err
}

// CreateExtent implements Pool.
func (p *VMPool) CreateExtent(m *simtime.Meter, pid storage.PID, npages int) (*Frame, error) {
	e, fresh, err := p.admit(m, pid, npages, npages, true)
	if err != nil {
		return nil, err
	}
	if !fresh {
		p.unpin(e)
		return nil, fmt.Errorf("buffer: CreateExtent(%d): extent already resident", pid)
	}
	for _, s := range p.layout.segs(nil, e, 0, npages) {
		clear(s.Buf)
	}
	// Pages become dirty only as the caller writes content, so the
	// commit-time flush writes exactly the dirty pages (§III-C).
	e.preventEvict.Store(true)
	close(e.loaded)
	return p.frame(e), nil
}

// errPrefixPinned is admit's answer, when told not to wait, for a fix
// that must upgrade a prefix entry other workers still pin.
var errPrefixPinned = errors.New("buffer: prefix entry pinned")

// admit pins an entry of the npages-page extent at pid holding at least
// its first used pages, creating it (fresh=true) when absent. A miss
// places only those used pages: a prefix entry. A resident prefix shorter
// than used is upgraded: admit waits for its pins to drain — or, unless
// wait is set, returns errPrefixPinned — then drops it and admits again.
// It never blocks on the loaded channel, so batched callers can classify
// every extent before any device read.
func (p *VMPool) admit(m *simtime.Meter, pid storage.PID, npages, used int, wait bool) (*entry, bool, error) {
	if used < 0 || used > npages {
		return nil, false, fmt.Errorf("buffer: fix of %d pages of %d-page extent %d", used, npages, pid)
	}
	sh := p.resident.shard(pid)
	for {
		// Hot path: shard-local hit, no structural lock.
		sh.RLock()
		e := sh.m[pid]
		sh.RUnlock()
		if e != nil {
			if e.extPages != npages {
				return nil, false, fmt.Errorf("buffer: extent %d resident with %d pages, fixed with %d",
					pid, e.extPages, npages)
			}
			if e.npages < used {
				// A prefix entry, and a fix that needs more of the extent:
				// once no one pins the prefix, drop it (a prefix is never
				// dirty, so nothing is written back) and admit again as a
				// miss.
				if e.claimEvict() {
					p.mu.Lock()
					if e.dirty() {
						panic("buffer: dirty prefix entry")
					}
					p.removeLocked(e)
					p.stats.Upgrades.Add(1)
					p.mu.Unlock()
				} else if !wait {
					return nil, false, errPrefixPinned
				} else {
					runtime.Gosched()
				}
				continue
			}
			if e.tryPin() {
				p.stats.Hits.Add(1)
				return e, false, nil
			}
			// Claimed by an in-flight eviction; wait for it to resolve.
			runtime.Gosched()
			continue
		}

		// Miss: place frames under the structural mutex. The allows sit on
		// their own lines: an allow also covers the line after it, which
		// must not be the placement call lockio checks.
		//blobvet:allow real lock-wait metering for LockWaitNs stats; never replayed
		t0 := time.Now()
		p.mu.Lock()
		//blobvet:allow real lock-wait metering for LockWaitNs stats; never replayed
		p.stats.LockWaitNs.Add(time.Since(t0).Nanoseconds())
		e, err := p.placeLocked(m, sh, pid, npages, used)
		if e == nil {
			p.mu.Unlock()
			if err != nil {
				return nil, false, err
			}
			continue // admitted by another worker meanwhile: retry
		}
		e.pins.Store(1)
		sh.Lock()
		sh.m[pid] = e
		sh.Unlock()
		p.orderIdx[pid] = len(p.order)
		p.order = append(p.order, pid)
		p.residentPg += used
		if used > p.maxExtSize {
			p.maxExtSize = used
		}
		p.stats.Misses.Add(1)
		p.mu.Unlock()
		return e, true, nil
	}
}

// placeLocked creates a loading entry for the extent with frame memory
// from the layout, evicting random extents until the resident budget and
// the layout both have room. Evictions may drop and re-acquire p.mu, so it
// returns (nil, nil) when another worker admitted pid meanwhile.
func (p *VMPool) placeLocked(m *simtime.Meter, sh *poolShard, pid storage.PID, npages, used int) (*entry, error) {
	if used > p.numPages {
		return nil, fmt.Errorf("buffer: extent of %d pages exceeds pool of %d: %w",
			used, p.numPages, ErrPoolFull)
	}
	e := &entry{headPID: pid, npages: used, extPages: npages, loaded: make(chan struct{})}
	limit := 64 + 16*len(p.order)
	for attempts := 0; ; attempts++ {
		sh.RLock()
		raced := sh.m[pid] != nil
		sh.RUnlock()
		if raced {
			return nil, nil
		}
		if p.residentPg+used <= p.numPages {
			ok, err := p.layout.place(e)
			if err != nil {
				return nil, err
			}
			if ok {
				return e, nil
			}
		}
		if attempts > limit {
			return nil, fmt.Errorf("buffer: cannot fit %d pages: %w", used, ErrPoolFull)
		}
		if err := p.evictOneLocked(m); err != nil {
			return nil, err
		}
	}
}

// evictOneLocked samples extents at random and evicts the first eligible
// one, accepting a candidate of size s with probability s/maxExtSize — the
// paper's fairness rule `if (rand(MAX_EXT_SIZE) < extent_size[pid]) Evict()`.
func (p *VMPool) evictOneLocked(m *simtime.Meter) error {
	for tries := 0; tries < 8*len(p.order)+64; tries++ {
		if len(p.order) == 0 {
			return fmt.Errorf("buffer: nothing to evict: %w", ErrPoolFull)
		}
		e := p.resident.get(p.order[p.rng.Intn(len(p.order))])
		if e == nil || e.preventEvict.Load() || !e.isLoaded() {
			continue
		}
		if p.rng.Intn(p.maxExtSize) >= e.npages {
			continue // fairness rule: bigger extents evict proportionally more often
		}
		if !e.claimEvict() {
			continue // pinned, or claimed by a concurrent eviction
		}
		if e.preventEvict.Load() {
			e.unclaimEvict()
			continue
		}
		return p.evictClaimedLocked(m, e)
	}
	// The fairness draw can reject every sample when only extents far
	// smaller than maxExtSize are resident; the pool is full only if no
	// extent can be evicted at all.
	for _, pid := range p.order {
		e := p.resident.get(pid)
		if e == nil || e.preventEvict.Load() || !e.isLoaded() || !e.claimEvict() {
			continue
		}
		if e.preventEvict.Load() {
			e.unclaimEvict()
			continue
		}
		return p.evictClaimedLocked(m, e)
	}
	return fmt.Errorf("buffer: all extents pinned or protected: %w", ErrPoolFull)
}

// evictClaimedLocked evicts an entry this worker has claimed. A dirty
// victim is written back with p.mu dropped — victim claimed, lock dropped,
// write, reconfirm: the claim blocks new pins, so the content cannot change
// underneath.
func (p *VMPool) evictClaimedLocked(m *simtime.Meter, e *entry) error {
	if e.dirty() {
		p.mu.Unlock()
		err := p.writeBack(m, e)
		p.mu.Lock()
		if err != nil {
			e.unclaimEvict()
			return err
		}
	}
	p.removeLocked(e)
	p.stats.Evictions.Add(1)
	return nil
}

// writeBack flushes the dirty range of a pinned or evict-claimed entry as
// one vectored submission, one segment per contiguous run of frame memory.
// It takes no pool lock: the frame memory is fixed once placed and the
// caller's pin/claim keeps it.
func (p *VMPool) writeBack(m *simtime.Meter, e *entry) error {
	lo, hi := e.takeDirty()
	if lo == hi {
		return nil
	}
	if err := storage.WriteVec(p.dev, m, p.layout.segs(nil, e, lo, hi)); err != nil {
		e.markDirty(lo, hi) // restore so the data is not silently lost
		return err
	}
	p.stats.Writebacks.Add(1)
	return nil
}

// removeLocked unlinks e from the resident structures and frees its frames.
func (p *VMPool) removeLocked(e *entry) {
	sh := p.resident.shard(e.headPID)
	sh.Lock()
	if sh.m[e.headPID] != e {
		sh.Unlock()
		return
	}
	delete(sh.m, e.headPID)
	sh.Unlock()
	if i, ok := p.orderIdx[e.headPID]; ok {
		last := len(p.order) - 1
		moved := p.order[last]
		p.order[i] = moved
		p.order = p.order[:last]
		if moved != e.headPID {
			p.orderIdx[moved] = i
		}
		delete(p.orderIdx, e.headPID)
	}
	p.layout.free(e)
	p.residentPg -= e.npages
}

// FlushExtent implements Pool. The caller's pin keeps the frame stable, so
// no pool lock is needed.
func (p *VMPool) FlushExtent(m *simtime.Meter, f *Frame) error {
	if err := p.writeBack(m, f.entry); err != nil {
		return err
	}
	f.entry.preventEvict.Store(false)
	return nil
}

// Drop implements Pool.
func (p *VMPool) Drop(pid storage.PID) {
	for {
		p.mu.Lock()
		e := p.resident.get(pid)
		if e == nil {
			p.mu.Unlock()
			return
		}
		if e.pins.Load() > 0 {
			p.mu.Unlock()
			panic("buffer: Drop of pinned extent")
		}
		if e.claimEvict() {
			p.removeLocked(e)
			p.mu.Unlock()
			return
		}
		// Claimed by an in-flight eviction; let its write-back finish.
		p.mu.Unlock()
		runtime.Gosched()
	}
}

// EvictAll implements Pool.
func (p *VMPool) EvictAll(m *simtime.Meter) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pid := range append([]storage.PID(nil), p.order...) {
		e := p.resident.get(pid)
		if e == nil || e.preventEvict.Load() || !e.isLoaded() || !e.claimEvict() {
			continue
		}
		if err := p.evictClaimedLocked(m, e); err != nil {
			return err
		}
	}
	return nil
}

func (p *VMPool) release(f *Frame) { p.unpin(f.entry) }

// unpin drops one pin of e; the last pin of a failed load unlinks the
// poisoned entry.
func (p *VMPool) unpin(e *entry) {
	n := e.pins.Add(-1)
	if n < 0 {
		panic("buffer: double release")
	}
	if n == 0 && e.isLoaded() && e.loadErr != nil {
		p.mu.Lock()
		if e.claimEvict() {
			p.removeLocked(e)
		}
		p.mu.Unlock()
	}
}

// slabLayout is the vmcache frame layout (§IV-A): all frame memory lives
// in one slab and an extent always occupies a contiguous frame range, so
// the whole extent moves with one device command.
//
// Like vmcache, frame placement is a *virtual* address concern: the real
// system reserves virtual space far larger than physical memory and lets
// the page table scatter physical pages, so a contiguous extent never
// fails on fragmentation. Go cannot remap pages, so the slab is
// over-provisioned 2x instead: a first-fit span allocator works in the
// roomy virtual slab while the pool enforces the resident budget.
type slabLayout struct {
	pageSize int
	slab     []byte
	spans    []span // free slab ranges, sorted by offset
}

type span struct{ off, n int }

func newSlabLayout(pageSize, numPages int) frameLayout {
	slabPages := numPages * 2
	return &slabLayout{
		pageSize: pageSize,
		slab:     make([]byte, slabPages*pageSize),
		spans:    []span{{0, slabPages}},
	}
}

// mem returns the slab bytes of n frames starting at frame off.
func (l *slabLayout) mem(off, n int) []byte {
	b, e := off*l.pageSize, (off+n)*l.pageSize
	return l.slab[b:e:e]
}

func (l *slabLayout) place(e *entry) (bool, error) {
	for i := range l.spans {
		if l.spans[i].n >= e.npages {
			e.frameOff = l.spans[i].off
			l.spans[i].off += e.npages
			l.spans[i].n -= e.npages
			if l.spans[i].n == 0 {
				l.spans = append(l.spans[:i], l.spans[i+1:]...)
			}
			return true, nil
		}
	}
	return false, nil
}

func (l *slabLayout) free(e *entry) {
	off, n := e.frameOff, e.npages
	// Insert sorted by offset and coalesce with neighbors.
	i := 0
	for i < len(l.spans) && l.spans[i].off < off {
		i++
	}
	l.spans = append(l.spans, span{})
	copy(l.spans[i+1:], l.spans[i:])
	l.spans[i] = span{off, n}
	// Coalesce with next, then previous.
	if i+1 < len(l.spans) && l.spans[i].off+l.spans[i].n == l.spans[i+1].off {
		l.spans[i].n += l.spans[i+1].n
		l.spans = append(l.spans[:i+1], l.spans[i+2:]...)
	}
	if i > 0 && l.spans[i-1].off+l.spans[i-1].n == l.spans[i].off {
		l.spans[i-1].n += l.spans[i].n
		l.spans = append(l.spans[:i], l.spans[i+1:]...)
	}
}

func (l *slabLayout) segs(dst []storage.Seg, e *entry, lo, hi int) []storage.Seg {
	return append(dst, storage.Seg{PID: e.headPID + storage.PID(lo), N: hi - lo, Buf: l.mem(e.frameOff+lo, hi-lo)})
}

// missSegs coalesces extents that are adjacent both on the device (PID)
// and in the slab into one segment.
func (l *slabLayout) missSegs(loads []*entry) []storage.Seg {
	sorted := append([]*entry(nil), loads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].headPID < sorted[j].headPID })
	var segs []storage.Seg
	for i := 0; i < len(sorted); {
		head := sorted[i]
		n := head.npages
		for i++; i < len(sorted) && sorted[i].headPID == head.headPID+storage.PID(n) &&
			sorted[i].frameOff == head.frameOff+n; i++ {
			n += sorted[i].npages
		}
		segs = append(segs, storage.Seg{PID: head.headPID, N: n, Buf: l.mem(head.frameOff, n)})
	}
	return segs
}

func (l *slabLayout) view(f *Frame) { f.data = l.mem(f.entry.frameOff, f.NPages) }
