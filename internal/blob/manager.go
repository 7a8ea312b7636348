package blob

import (
	"fmt"

	"blobdb/internal/simtime"

	"blobdb/internal/buffer"
	"blobdb/internal/extent"
	"blobdb/internal/storage"
)

// Manager implements BLOB operations over a buffer pool and extent
// allocator. It is policy-free about durability ordering: operations return
// Pending work (extents to flush, extents to free) and the transaction
// layer enforces the §III-C protocol — Blob State durable in the WAL first,
// extents flushed second, frees applied at commit.
type Manager struct {
	Pool  buffer.Pool
	Alloc *extent.Allocator
	Alias *buffer.AliasManager
	// UseTail enables tail extents (§III-A): minimal internal
	// fragmentation, slower growth.
	UseTail bool
}

// NewManager wires a blob manager.
func NewManager(pool buffer.Pool, alloc *extent.Allocator, alias *buffer.AliasManager) *Manager {
	return &Manager{Pool: pool, Alloc: alloc, Alias: alias}
}

// FreeSpec identifies one extent to return to the allocator at commit.
type FreeSpec struct {
	Tier  int // -1 for a tail extent
	PID   storage.PID
	Pages uint64 // used for tail extents
}

// Pending is the unflushed output of an allocation or mutation: the frames
// whose dirty pages must be written once the Blob State is durable, and the
// extents that become free once the transaction commits.
type Pending struct {
	mgr    *Manager
	Frames []*buffer.Frame
	// News lists the extents this operation allocated; an aborting
	// transaction passes them to Discard so they return to the allocator.
	News []FreeSpec
}

// NewPending builds a Pending by hand for operations outside the writer —
// extent relocation stages its already-flushed copy with frames nil and
// the new extent in news, so a transaction abort returns it to the
// allocator through the same Discard path as writer allocations.
func (m *Manager) NewPending(frames []*buffer.Frame, news []FreeSpec) *Pending {
	return &Pending{mgr: m, Frames: frames, News: news}
}

// Flush writes all dirty pages of the pending extents to the device and
// clears their prevent_evict flags. This is the commit-time single flush of
// §III-C; the caller must have made the Blob State durable first.
func (p *Pending) Flush(m *simtime.Meter) error {
	for _, f := range p.Frames {
		if err := p.mgr.Pool.FlushExtent(m, f); err != nil {
			return err
		}
	}
	return nil
}

// Release unpins all pending frames after Flush (commit).
func (p *Pending) Release() {
	for _, f := range p.Frames {
		f.Release()
	}
	p.Frames = nil
}

// Unpin releases the pending frames of a transaction that will not flush
// them and returns their head PIDs. Nothing is written back: the frames
// stay resident and evict-protected — a lock-free reader may still pin
// them, and none of their uncommitted pages may reach the device — until
// the caller drops them.
func (p *Pending) Unpin() []storage.PID {
	pids := make([]storage.PID, len(p.Frames))
	for i, f := range p.Frames {
		pids[i] = f.HeadPID
		f.Release()
	}
	p.Frames = nil
	return pids
}

// Discard aborts the pending allocation: frames are dropped without
// writeback and the newly allocated extents are returned to the allocator.
func (p *Pending) Discard(newExtents []FreeSpec) {
	for _, f := range p.Frames {
		f.SetPreventEvict(false)
		f.Release()
	}
	for _, f := range p.Frames {
		p.mgr.Pool.Drop(f.HeadPID)
	}
	p.Frames = nil
	p.mgr.ApplyFrees(newExtents)
}

// ApplyFrees returns extents to the allocator (commit-time, §III-D).
func (m *Manager) ApplyFrees(specs []FreeSpec) {
	for _, s := range specs {
		m.Pool.Drop(s.PID)
		if s.Tier < 0 {
			m.Alloc.FreeTail(s.PID, s.Pages)
		} else {
			m.Alloc.FreeExtent(s.Tier, s.PID)
		}
	}
}

// ReadHandle keeps a read's frames pinned and its aliasing area reserved
// until Close.
type ReadHandle struct {
	mgr    *Manager
	frames []*buffer.Frame
	view   *buffer.BlobView
}

// View returns the aliased BLOB view.
func (h *ReadHandle) View() *buffer.BlobView { return h.view }

// Close releases the aliasing area (charging the TLB shootdown) and unpins
// the frames.
func (h *ReadHandle) Close(mt *simtime.Meter) {
	if h.view != nil {
		h.view.Release(mt)
		h.view = nil
	}
	for _, f := range h.frames {
		f.Release()
	}
	h.frames = nil
}

// fixSpecs lists every extent of the BLOB (tiered extents plus tail) as a
// batch-fix spec, in BLOB order. Each spec asks only for the pages that
// st.Size covers, so the last extent of a growing BLOB is fixed as a
// prefix and its unused pages are neither read nor held in the pool.
func (m *Manager) fixSpecs(st *State) []buffer.ExtentSpec {
	tiers := m.Alloc.Tiers()
	specs := make([]buffer.ExtentSpec, 0, len(st.Extents)+1)
	left := m.contentPages(st.Size)
	add := func(pid storage.PID, npages uint64) {
		specs = append(specs, buffer.ExtentSpec{PID: pid, NPages: int(npages), Used: usedPages(left, npages)})
		left -= min(left, npages)
	}
	for i, pid := range st.Extents {
		add(pid, tiers.Size(i))
	}
	if st.HasTail() {
		add(st.Tail.PID, st.Tail.Pages)
	}
	return specs
}

// contentPages returns the number of pages that size bytes of content
// cover.
func (m *Manager) contentPages(size uint64) uint64 {
	ps := uint64(m.Pool.PageSize())
	return (size + ps - 1) / ps
}

// usedPages returns the ExtentSpec.Used of an npages extent when left
// content pages remain from its start: 0 (the whole extent) when the
// content fills it, else that prefix — at least one page, since Used 0
// would mean the whole extent.
func usedPages(left, npages uint64) int {
	if left >= npages {
		return 0
	}
	return int(max(left, 1))
}

// Read fixes all of the BLOB's extents with one batched pool call — every
// missing extent comes off the device in a single vectored submission
// (§III-D: one I/O per BLOB read) — and aliases them into one logical
// buffer.
func (m *Manager) Read(mt *simtime.Meter, st *State) (*ReadHandle, error) {
	h := &ReadHandle{mgr: m}
	frames, err := m.Pool.FixExtents(mt, m.fixSpecs(st))
	if err != nil {
		return nil, fmt.Errorf("blob: fix extents: %w", err)
	}
	h.frames = frames
	if len(h.frames) == 1 && h.frames[0].Contiguous() != nil {
		// One extent is already contiguous in vmcache — no aliasing area,
		// no TLB shootdown (§IV-A).
		v, err := m.Alias.DirectView(h.frames[0], int(st.Size))
		if err == nil {
			h.view = v
			return h, nil
		}
	}
	v, err := m.Alias.Alias(mt, h.frames, int(st.Size))
	if err != nil {
		h.Close(mt)
		return nil, err
	}
	h.view = v
	return h, nil
}

// ReadAll copies the whole BLOB into a fresh buffer (two copies when the
// pool is page-granular and Materialize is the only option; one copy plus
// the alias bookkeeping for vmcache).
func (m *Manager) ReadAll(mt *simtime.Meter, st *State) ([]byte, error) {
	h, err := m.Read(mt, st)
	if err != nil {
		return nil, err
	}
	defer h.Close(mt)
	buf := make([]byte, st.Size)
	h.view.CopyTo(buf, 0)
	return buf, nil
}

// Delete returns the free specifications for all of the BLOB's extents.
// The transaction layer applies them at commit (§III-D).
func (m *Manager) Delete(st *State) []FreeSpec {
	specs := make([]FreeSpec, 0, len(st.Extents)+1)
	for i, pid := range st.Extents {
		specs = append(specs, FreeSpec{Tier: i, PID: pid})
	}
	if st.HasTail() {
		specs = append(specs, FreeSpec{Tier: -1, PID: st.Tail.PID, Pages: st.Tail.Pages})
	}
	return specs
}
