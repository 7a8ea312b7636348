package buffer

import (
	"fmt"

	"blobdb/internal/storage"
)

// NewHTPool creates the traditional hash-table buffer pool used by the
// Our.ht baseline (§V-B, §V-E): numPages page-granular frames scattered
// in memory, over dev.
//
// Fixing an N-page extent performs N page translations and yields N
// disjoint byte ranges, and the device is read and written page by page
// (the §III-G example of N preads). A multi-extent BLOB therefore cannot
// be presented as contiguous memory — callers must materialize it with an
// extra allocate+copy, which is exactly the overhead Figure 10 measures
// against virtual-memory aliasing.
func NewHTPool(dev storage.Device, numPages int) *VMPool {
	return newPool(dev, numPages, 43, newPageLayout)
}

// pageLayout scatters an extent over page frames found through a per-page
// translation table.
type pageLayout struct {
	pageSize  int
	slab      []byte
	pageMap   map[storage.PID]int // per-page translation table
	freePages []int
}

func newPageLayout(pageSize, numPages int) frameLayout {
	l := &pageLayout{
		pageSize:  pageSize,
		slab:      make([]byte, numPages*pageSize),
		pageMap:   map[storage.PID]int{},
		freePages: make([]int, numPages),
	}
	for i := range l.freePages {
		l.freePages[i] = numPages - 1 - i
	}
	return l
}

func (l *pageLayout) page(idx int) []byte {
	off := idx * l.pageSize
	return l.slab[off : off+l.pageSize : off+l.pageSize]
}

func (l *pageLayout) place(e *entry) (bool, error) {
	// Reject overlap with any resident extent: the allocator hands out
	// disjoint extents, so an overlapping fix is a caller bug that would
	// silently corrupt the page translation table.
	for i := 0; i < e.npages; i++ {
		if _, clash := l.pageMap[e.headPID+storage.PID(i)]; clash {
			return false, fmt.Errorf("buffer: extent [%d,%d) overlaps a resident extent",
				e.headPID, e.headPID+storage.PID(e.npages))
		}
	}
	if len(l.freePages) < e.npages {
		return false, nil
	}
	e.pages = make([]int, e.npages)
	for i := range e.pages {
		idx := l.freePages[len(l.freePages)-1]
		l.freePages = l.freePages[:len(l.freePages)-1]
		e.pages[i] = idx
		l.pageMap[e.headPID+storage.PID(i)] = idx
	}
	return true, nil
}

func (l *pageLayout) free(e *entry) {
	for i, idx := range e.pages {
		l.freePages = append(l.freePages, idx)
		delete(l.pageMap, e.headPID+storage.PID(i))
	}
}

// segs emits one single-page segment per frame: nothing longer is
// contiguous in memory.
func (l *pageLayout) segs(dst []storage.Seg, e *entry, lo, hi int) []storage.Seg {
	for i := lo; i < hi; i++ {
		dst = append(dst, storage.Seg{PID: e.headPID + storage.PID(i), N: 1, Buf: l.page(e.pages[i])})
	}
	return dst
}

// missSegs keeps the baseline's N-preads character — one segment per page
// — even though all of them go to the device in a single submission.
func (l *pageLayout) missSegs(loads []*entry) []storage.Seg {
	var segs []storage.Seg
	for _, e := range loads {
		segs = l.segs(segs, e, 0, e.npages)
	}
	return segs
}

// view assembles the page list with one translation per page — the N
// translations the paper contrasts with vmcache's single one.
func (l *pageLayout) view(f *Frame) {
	f.pages = make([][]byte, f.NPages)
	for i, idx := range f.entry.pages {
		f.pages[i] = l.page(idx)
	}
}
