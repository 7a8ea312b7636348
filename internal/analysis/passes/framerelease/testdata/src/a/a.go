// Package a exercises the framerelease analyzer: leaks, double releases,
// discarded results, and the conforming patterns the engine actually uses.
package a

import (
	"errors"

	"buffer"
)

// ---- violations ----

func leakOnEarlyReturn(p *buffer.Pool, bad bool) error {
	f, err := p.FixExtent(1, 2) // want `frame fixed by FixExtent is not released on every path`
	if err != nil {
		return err
	}
	if bad {
		return errors.New("forgot the frame") // leak path
	}
	f.Release()
	return nil
}

func leakFallOffEnd(p *buffer.Pool) {
	f, _ := p.FixExtent(1, 1) // want `frame fixed by FixExtent is not released on every path`
	f.ReadAt(nil, 0)
}

func leakBatch(p *buffer.Pool, bad bool) error {
	frames, err := p.FixExtents([]uint64{1, 2}) // want `frames fixed by FixExtents is not released on every path`
	if err != nil {
		return err
	}
	if bad {
		return errors.New("batch leaked")
	}
	for _, f := range frames {
		f.Release()
	}
	return nil
}

func discarded(p *buffer.Pool) {
	p.FixExtent(1, 1) // want `result of FixExtent is discarded`
}

func discardedBlank(p *buffer.Pool) error {
	_, err := p.FixExtent(1, 1) // want `result of FixExtent is discarded`
	return err
}

func doubleRelease(p *buffer.Pool) {
	f, err := p.FixExtent(1, 1)
	if err != nil {
		return
	}
	f.Release()
	f.Release() // want `may already be released on this path; releasing twice corrupts the pin count`
}

func doubleReleaseDefer(p *buffer.Pool) {
	f, err := p.FixExtent(1, 1)
	if err != nil {
		return
	}
	defer f.Release()
	f.Release() // want `released here and again by a deferred Release`
}

func overwriteBeforeRelease(p *buffer.Pool) {
	f, err := p.FixExtent(1, 1)
	if err != nil {
		return
	}
	f, err = p.FixExtent(2, 1) // want `frame fixed by FixExtent is overwritten before being released`
	if err != nil {
		return
	}
	f.Release()
}

// leakInCommitErrorPath pins the shape of a real engine bug: the commit
// error path (then Txn.Commit's synchronous branch, and failCommit in
// the group committer) released its locks but not its pending frames
// when the WAL write or extent flush failed, leaving evict-protected
// pins behind (internal/core/commit.go).
func leakInCommitErrorPath(p *buffer.Pool, writeWAL func() error) error {
	f, err := p.FixExtent(7, 2) // want `frame fixed by FixExtent is not released on every path`
	if err != nil {
		return err
	}
	f.WriteAt(nil, 0)
	if err := writeWAL(); err != nil {
		// releaseLocks() happened here, but not f.Release().
		return err
	}
	f.Release()
	return nil
}

// leakCloneOnFlushError pins the relocation hazard this analyzer was
// extended for: the defragmenter's per-move protocol (pin source → copy
// into a created clone → flush → release) leaks the evict-protected
// clone frame if the flush error path forgets the release
// (internal/core/relocate.go is the real-tree shape).
func leakCloneOnFlushError(p *buffer.Pool, pid uint64) error {
	clone, err := p.CreateExtent(pid, 4) // want `frame created by CreateExtent is not released on every path`
	if err != nil {
		return err
	}
	clone.WriteAt(nil, 0)
	if err := p.FlushExtent(clone); err != nil {
		p.Drop(pid) // returned the slot, forgot the pin
		return err
	}
	clone.Release()
	return nil
}

func discardedCreate(p *buffer.Pool) {
	p.CreateExtent(3, 1) // want `result of CreateExtent is discarded`
}

// ---- conforming code ----

// relocateMove is the conforming defragmenter move: both the source pin
// and the created clone are released on every path, including the flush
// error path.
func relocateMove(p *buffer.Pool, src, dst uint64) error {
	old, err := p.FixExtent(src, 4)
	if err != nil {
		return err
	}
	clone, err := p.CreateExtent(dst, 4)
	if err != nil {
		old.Release()
		return err
	}
	old.ReadAt(nil, 0)
	clone.WriteAt(nil, 0)
	old.Release()
	if err := p.FlushExtent(clone); err != nil {
		clone.Release()
		p.Drop(dst)
		return err
	}
	clone.Release()
	return nil
}

func straightLine(p *buffer.Pool) error {
	f, err := p.FixExtent(1, 1)
	if err != nil {
		return err
	}
	f.ReadAt(nil, 0)
	f.Release()
	return nil
}

func deferred(p *buffer.Pool) error {
	f, err := p.FixExtent(1, 1)
	if err != nil {
		return err
	}
	defer f.Release()
	f.ReadAt(nil, 0)
	return nil
}

func guardedRelease(p *buffer.Pool) {
	f, _ := p.FixExtent(1, 1)
	if f != nil {
		f.Release()
	}
}

// accumulate is the sequential-fix shape: per-iteration frames move into
// a slice, which is released element-wise on both the error path and the
// happy path.
func accumulate(p *buffer.Pool, n int) error {
	frames := make([]*buffer.Frame, 0, n)
	for i := 0; i < n; i++ {
		f, err := p.FixExtent(uint64(i), 1)
		if err != nil {
			for _, g := range frames {
				g.Release()
			}
			return err
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		f.Release()
	}
	return nil
}

// errTriage is the blob/compare hashContent shape: a tagless switch over
// the fix error, where reaching the second case implies err != nil and
// hence no frame was returned.
func errTriage(p *buffer.Pool) error {
	f, err := p.FixExtent(1, 4)
	switch {
	case err == nil:
		defer f.Release()
		f.ReadAt(nil, 0)
		return nil
	case errors.Is(err, buffer.ErrPoolFull):
		return nil // retry later; nothing was fixed
	default:
		return err
	}
}

// escapeToCaller transfers ownership out: not this function's obligation.
func escapeToCaller(p *buffer.Pool) (*buffer.Frame, error) {
	return p.FixExtent(1, 1)
}

func escapeToField(p *buffer.Pool, h *holder) error {
	f, err := p.FixExtent(1, 1)
	if err != nil {
		return err
	}
	h.frame = f
	return nil
}

func escapeToCallee(p *buffer.Pool, sink func(*buffer.Frame)) error {
	f, err := p.FixExtent(1, 1)
	if err != nil {
		return err
	}
	sink(f)
	return nil
}

func releaseByIndex(p *buffer.Pool) error {
	frames, err := p.FixExtents([]uint64{1, 2, 3})
	if err != nil {
		return err
	}
	for _, f := range frames {
		f.ReadAt(nil, 0)
	}
	for i := range frames {
		frames[i].Release()
	}
	return nil
}

type holder struct{ frame *buffer.Frame }

// fixIntoField pins the blob comparator's contentStream shape: the fix
// result is stored straight into a struct field, so ownership moves to
// the holder and release happens through it later. Not a discard.
func fixIntoField(h *holder, p *buffer.Pool) error {
	var err error
	h.frame, err = p.FixExtent(7, 4)
	if err != nil {
		return err
	}
	h.frame.ReadAt(nil, 0)
	return nil
}

// fixIntoSlot does the same through a slice element.
func fixIntoSlot(slots []*buffer.Frame, p *buffer.Pool) error {
	var err error
	slots[0], err = p.FixExtent(9, 1)
	return err
}

// ---- helper boundaries (summary pin/release contract) ----

// fetchBlock pins and hands the frame to its caller: the release
// obligation transfers with it (summary: Pins=FixExtent).
func fetchBlock(p *buffer.Pool, pid uint64) (*buffer.Frame, error) {
	return p.FixExtent(pid, 1)
}

// fetchBatch transfers a batch obligation (summary: Pins=FixExtents).
func fetchBatch(p *buffer.Pool, pids []uint64) ([]*buffer.Frame, error) {
	return p.FixExtents(pids)
}

// dropFrame releases its parameter (summary: Releases=[0]); callers
// discharge their obligation through it.
func dropFrame(f *buffer.Frame) {
	f.Release()
}

// releaseAll releases every frame in the batch (summary: Releases=[0]).
func releaseAll(frames []*buffer.Frame) {
	for _, f := range frames {
		f.Release()
	}
}

func helperLeak(p *buffer.Pool, bad bool) error {
	f, err := fetchBlock(p, 7) // want `frame fixed by FixExtent is not released on every path`
	if err != nil {
		return err
	}
	if bad {
		return errors.New("leaked through the helper boundary")
	}
	f.Release()
	return nil
}

func helperDiscarded(p *buffer.Pool) {
	fetchBlock(p, 9) // want `result of fetchBlock is discarded; the helper returns a pinned frame \(FixExtent\)`
}

// helperReleaseOK discharges through dropFrame: fix via helper, release
// via helper, every path clean.
func helperReleaseOK(p *buffer.Pool) error {
	f, err := fetchBlock(p, 7)
	if err != nil {
		return err
	}
	f.ReadAt(nil, 0)
	dropFrame(f)
	return nil
}

// helperDoubleRelease: the release through dropFrame counts, so the
// direct Release after it is a double release.
func helperDoubleRelease(p *buffer.Pool) error {
	f, err := p.FixExtent(1, 1)
	if err != nil {
		return err
	}
	dropFrame(f)
	f.Release() // want `may already be released on this path; releasing twice corrupts the pin count`
	return nil
}

// helperBatch: batch fixed through one helper, released through another.
func helperBatch(p *buffer.Pool, pids []uint64) error {
	frames, err := fetchBatch(p, pids)
	if err != nil {
		return err
	}
	releaseAll(frames)
	return nil
}

// helperBatchLeak: the error path before releaseAll leaks the batch.
func helperBatchLeak(p *buffer.Pool, pids []uint64, bad bool) error {
	frames, err := fetchBatch(p, pids) // want `frames fixed by FixExtents is not released on every path`
	if err != nil {
		return err
	}
	if bad {
		return errors.New("batch leaked past the helper")
	}
	releaseAll(frames)
	return nil
}
