package blob

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"blobdb/internal/buffer"
	"blobdb/internal/extent"
	"blobdb/internal/sha256x"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// Errors returned by the streaming writer.
var (
	// ErrTooLarge reports a blob that exhausted the extent tier table
	// (§III-A bounds a blob at MaxExtentsPerBlob extents).
	ErrTooLarge = errors.New("blob: blob exceeds maximum size")
	// ErrWriterSealed reports a write to an already-closed Writer.
	ErrWriterSealed = errors.New("blob: writer already sealed")
	// ErrWriterAborted reports use of an aborted Writer.
	ErrWriterAborted = errors.New("blob: writer aborted")
)

// WriterOpts configures Manager.NewWriter.
type WriterOpts struct {
	// Meter is charged for worker-side work (allocation, copies). May be
	// nil.
	Meter *simtime.Meter
	// Ctx cancels the write mid-stream: Write/ReadFrom fail once the
	// context is done (an abandoned HTTP upload stops consuming extents).
	// Nil means never cancelled.
	Ctx context.Context
	// Stream enables the bounded-memory pipeline: each completed extent is
	// flushed to the device (and its frame unpinned) on a background
	// goroutine while the next extent fills, so at most two extents are
	// pinned at once. When false the writer keeps every frame pinned in a
	// Pending, preserving the strict §III-C ordering (nothing reaches the
	// device before the Blob State is durable) — the mode the deprecated
	// []byte wrappers use. Early-flushed extents are safe because recovery
	// hashes the state of every key a transaction it cannot prove landed
	// names, committed or not.
	Stream bool
	// Tee, if set, observes every chunk before it is absorbed — the
	// physlog baseline appends the content to the WAL through it.
	Tee func(chunk []byte) error
	// Base selects append mode: the writer resumes the SHA-256 from
	// Base.Intermediate and extends the extent sequence (§III-D grow). Nil
	// creates a new blob.
	Base *State
	// CloneFrontier (append mode) makes the writer clone a partially
	// filled last extent into a fresh one instead of reopening it in
	// place, scheduling the original for commit-time freeing. The
	// transaction layer sets it when the base's extents are shared
	// (refcounted dedup): in-place growth would rewrite bytes a co-owner
	// is still reading. Tail extents are always cloned regardless.
	CloneFrontier bool
	// OnSeal is invoked by Close with the sealed State, the Pending flush
	// work, and the extents the operation freed (an append's replaced
	// tail). The transaction layer stages the tuple and WAL record here.
	OnSeal func(st *State, p *Pending, frees []FreeSpec) error
	// OnAbort is invoked once if the writer is aborted before sealing.
	OnAbort func()
}

// Writer streams a blob into the engine: it implements io.Writer and
// io.ReaderFrom, allocating extents incrementally from the tier table as
// bytes arrive and feeding the resumable SHA-256 chunk by chunk, so a blob
// of any size costs O(one extent) of memory — never O(blob). Close seals
// the accumulated bytes into a State; Abort releases everything.
//
// In Stream mode completed extents are flushed before the transaction
// commits. That relaxes the §III-C flush-after-WAL ordering but remains
// crash-safe: recovery hashes, by SHA-256, the surviving Blob State of
// every key that a transaction not yet covered by the extents-landed
// watermark names (DESIGN.md §5, "Recovery validation") and rebuilds the
// allocator from live states, so early-flushed extents of an uncommitted
// transaction are simply reclaimed.
//
// A Writer is single-goroutine, like the transaction that owns it.
type Writer struct {
	mgr   *Manager
	mt    *simtime.Meter
	ctx   context.Context
	tiers *extent.TierTable

	stream  bool
	useTail bool
	tee     func([]byte) error
	onSeal  func(*State, *Pending, []FreeSpec) error
	onAbort func()

	h      sha256x.ResumableHasher
	size   uint64
	prefix [PrefixLen]byte

	base          *State // append mode: the state being extended (private clone)
	appendInit    bool
	wroteAny      bool
	cloneFrontier bool

	extents []storage.PID
	tail    extent.Extent
	news    []FreeSpec // extents this writer allocated (abort returns them)
	frees   []FreeSpec // extents this writer replaced (append: the old tail)
	pend    *Pending

	cur      *buffer.Frame
	curOwned bool // cur's extent is in news (vs a reopened pre-existing one)
	curUsed  int
	curCap   int

	scratch []byte

	flushCh   chan *buffer.Frame
	flushDone chan struct{}
	fmu       sync.Mutex
	ferr      error

	pinnedB atomic.Int64
	peakB   atomic.Int64

	sealed  bool
	aborted bool
	st      *State
	err     error
}

// scratchSize bounds the copy buffer used for non-contiguous pools and
// tail conversion.
const scratchSize = 256 << 10

// NewWriter starts a streaming blob write. See WriterOpts.
func (m *Manager) NewWriter(o WriterOpts) (*Writer, error) {
	w := &Writer{
		mgr:           m,
		mt:            o.Meter,
		ctx:           o.Ctx,
		tiers:         m.Alloc.Tiers(),
		stream:        o.Stream,
		useTail:       m.UseTail,
		tee:           o.Tee,
		onSeal:        o.OnSeal,
		onAbort:       o.OnAbort,
		cloneFrontier: o.CloneFrontier,
		pend:          &Pending{mgr: m},
	}
	if o.Base != nil {
		base := o.Base.Clone()
		w.base = base
		w.size = base.Size
		w.prefix = base.Prefix
		w.extents = base.Extents
		w.tail = base.Tail
		w.h = sha256x.BestResume(base.Intermediate)
	} else {
		w.h = sha256x.BestHasher()
	}
	return w, nil
}

// Size returns the bytes absorbed so far (append mode: including the base).
func (w *Writer) Size() uint64 { return w.size }

// State returns the sealed Blob State; nil before Close succeeds.
func (w *Writer) State() *State { return w.st }

// Sealed returns the seal results for callers driving the Manager directly
// (without an OnSeal hook): state, pending flush work, replaced extents.
func (w *Writer) Sealed() (*State, *Pending, []FreeSpec) { return w.st, w.pend, w.frees }

// PeakPinnedBytes reports the high-water mark of frame bytes this writer
// held pinned at once — the figure the bounded-memory tests assert on. In
// Stream mode it stays under two extents regardless of blob size.
func (w *Writer) PeakPinnedBytes() int64 { return w.peakB.Load() }

func (w *Writer) addPinned(n int64) {
	v := w.pinnedB.Add(n)
	for {
		p := w.peakB.Load()
		if v <= p || w.peakB.CompareAndSwap(p, v) {
			return
		}
	}
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

func (w *Writer) ctxErr() error {
	if w.ctx == nil {
		return nil
	}
	return w.ctx.Err()
}

func (w *Writer) flushErr() error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.ferr
}

func (w *Writer) writable() error {
	if w.aborted {
		return ErrWriterAborted
	}
	if w.sealed {
		return ErrWriterSealed
	}
	if w.err != nil {
		return w.err
	}
	if err := w.flushErr(); err != nil {
		return w.fail(err)
	}
	if err := w.ctxErr(); err != nil {
		return w.fail(err)
	}
	return nil
}

// absorb feeds a chunk that has already been copied into the current frame
// to the hash, the prefix, and the size.
func (w *Writer) absorb(chunk []byte) {
	w.h.Write(chunk)
	if w.size < PrefixLen {
		copy(w.prefix[w.size:], chunk)
	}
	w.size += uint64(len(chunk))
	w.wroteAny = true
}

// startFlusher lazily launches the single background flush goroutine
// (Stream mode). The channel is unbuffered: handing off extent i blocks
// until extent i-1 has finished flushing, which is what bounds the pinned
// set to two extents. The flushes overlap the writer, so they are charged
// to no meter, like the committer's commit-time flush.
func (w *Writer) startFlusher() {
	if w.flushCh != nil {
		return
	}
	w.flushCh = make(chan *buffer.Frame)
	w.flushDone = make(chan struct{})
	go func() {
		defer close(w.flushDone)
		for f := range w.flushCh {
			if err := w.mgr.Pool.FlushExtent(nil, f); err != nil {
				f.SetPreventEvict(false)
				w.fmu.Lock()
				if w.ferr == nil {
					w.ferr = err
				}
				w.fmu.Unlock()
			}
			nb := int64(f.NPages) * int64(w.mgr.Pool.PageSize())
			f.Release()
			w.addPinned(-nb)
		}
	}()
}

func (w *Writer) stopFlusher() {
	if w.flushCh == nil {
		return
	}
	close(w.flushCh)
	<-w.flushDone
	w.flushCh = nil
}

// finishCur retires the filled current extent: scheduled for background
// flush in Stream mode, kept pinned in the Pending otherwise.
func (w *Writer) finishCur() {
	f := w.cur
	w.cur = nil
	if w.stream {
		w.startFlusher()
		w.flushCh <- f
	} else {
		w.pend.Frames = append(w.pend.Frames, f)
	}
}

// nextExtent allocates the next tier extent and makes it current.
func (w *Writer) nextExtent() error {
	tier := len(w.extents)
	if tier >= w.tiers.NumTiers() {
		return w.fail(fmt.Errorf("blob: writer: %w", ErrTooLarge))
	}
	pid, err := w.mgr.Alloc.AllocExtent(tier)
	if err != nil {
		return w.fail(fmt.Errorf("blob: writer: allocate extent tier %d: %w", tier, err))
	}
	npages := w.tiers.Size(tier)
	f, err := w.mgr.Pool.CreateExtent(w.mt, pid, int(npages))
	if err != nil {
		w.mgr.Alloc.FreeExtent(tier, pid)
		return w.fail(fmt.Errorf("blob: writer: pin new extent: %w", err))
	}
	w.news = append(w.news, FreeSpec{Tier: tier, PID: pid})
	w.extents = append(w.extents, pid)
	w.cur = f
	w.curOwned = true
	w.curUsed = 0
	w.curCap = int(npages) * w.mgr.Pool.PageSize()
	w.addPinned(int64(w.curCap))
	return nil
}

// lazyAppendInit reopens the growth frontier of the base state on the
// first appended byte (§III-D): a tail extent is cloned into the tier
// extent it replaced, otherwise the last extent's free space is reopened.
// Deferred until a byte actually arrives so a no-op append leaves the
// state (including its tail) untouched.
func (w *Writer) lazyAppendInit() error {
	w.appendInit = true
	ps := w.mgr.Pool.PageSize()
	if w.tail.Pages > 0 {
		tier := len(w.extents)
		if tier >= w.tiers.NumTiers() {
			return w.fail(fmt.Errorf("blob: writer: %w", ErrTooLarge))
		}
		npages := w.tiers.Size(tier)
		pid, err := w.mgr.Alloc.AllocExtent(tier)
		if err != nil {
			return w.fail(fmt.Errorf("blob: writer: clone tail: %w", err))
		}
		clone, err := w.mgr.Pool.CreateExtent(w.mt, pid, int(npages))
		if err != nil {
			w.mgr.Alloc.FreeExtent(tier, pid)
			return w.fail(fmt.Errorf("blob: writer: clone tail: %w", err))
		}
		tf, err := w.mgr.Pool.FixExtent(w.mt, w.tail.PID, int(w.tail.Pages))
		if err != nil {
			clone.SetPreventEvict(false)
			clone.Release()
			w.mgr.Pool.Drop(pid)
			w.mgr.Alloc.FreeExtent(tier, pid)
			return w.fail(fmt.Errorf("blob: writer: fix tail: %w", err))
		}
		// memcpy tail -> clone through a bounded scratch (§III-H growth cost).
		w.copyFrames(tf, clone, int(w.tail.Pages)*ps)
		tf.Release()
		w.news = append(w.news, FreeSpec{Tier: tier, PID: pid})
		w.frees = append(w.frees, FreeSpec{Tier: -1, PID: w.tail.PID, Pages: w.tail.Pages})
		w.extents = append(w.extents, pid)
		w.tail = extent.Extent{}
		w.cur = clone
		w.curOwned = true
		w.curCap = int(npages) * ps
		w.curUsed = int(w.size - w.tiers.Cum(tier-1)*uint64(ps))
		w.addPinned(int64(w.curCap))
		return nil
	}
	if k := len(w.extents); k > 0 {
		capBytes := w.tiers.Cum(k-1) * uint64(ps)
		if w.size < capBytes {
			tier := k - 1
			npages := w.tiers.Size(tier)
			used := int(w.size - w.tiers.Cum(tier-1)*uint64(ps))
			if w.cloneFrontier {
				// The frontier extent is shared (refcounted dedup): copy
				// its valid prefix into a fresh same-tier extent and grow
				// that instead; the original is scheduled for commit-time
				// freeing, where the ledger decides dereference vs free.
				pid, err := w.mgr.Alloc.AllocExtent(tier)
				if err != nil {
					return w.fail(fmt.Errorf("blob: writer: clone frontier: %w", err))
				}
				clone, err := w.mgr.Pool.CreateExtent(w.mt, pid, int(npages))
				if err != nil {
					w.mgr.Alloc.FreeExtent(tier, pid)
					return w.fail(fmt.Errorf("blob: writer: clone frontier: %w", err))
				}
				old, err := w.mgr.Pool.FixExtent(w.mt, w.extents[tier], int(npages))
				if err != nil {
					clone.SetPreventEvict(false)
					clone.Release()
					w.mgr.Pool.Drop(pid)
					w.mgr.Alloc.FreeExtent(tier, pid)
					return w.fail(fmt.Errorf("blob: writer: fix shared frontier: %w", err))
				}
				w.copyFrames(old, clone, used)
				old.Release()
				w.news = append(w.news, FreeSpec{Tier: tier, PID: pid})
				w.frees = append(w.frees, FreeSpec{Tier: tier, PID: w.extents[tier]})
				w.extents[tier] = pid
				w.cur = clone
				w.curOwned = true
			} else {
				f, err := w.mgr.Pool.FixExtent(w.mt, w.extents[tier], int(npages))
				if err != nil {
					return w.fail(fmt.Errorf("blob: writer: fix last extent: %w", err))
				}
				f.SetPreventEvict(true)
				w.cur = f
				w.curOwned = false
			}
			w.curCap = int(npages) * ps
			w.curUsed = used
			w.addPinned(int64(w.curCap))
		}
	}
	return nil
}

// copyFrames copies n bytes from src to dst through the scratch buffer.
func (w *Writer) copyFrames(src, dst *buffer.Frame, n int) {
	if w.scratch == nil {
		w.scratch = make([]byte, scratchSize)
	}
	for off := 0; off < n; {
		c := n - off
		if c > len(w.scratch) {
			c = len(w.scratch)
		}
		src.ReadAt(w.scratch[:c], off)
		dst.WriteAt(w.scratch[:c], off)
		off += c
	}
}

// ensureSpace guarantees w.cur has at least one free byte.
func (w *Writer) ensureSpace() error {
	if w.base != nil && !w.appendInit {
		if err := w.lazyAppendInit(); err != nil {
			return err
		}
	}
	if w.cur != nil && w.curUsed == w.curCap {
		w.finishCur()
	}
	if w.cur == nil {
		return w.nextExtent()
	}
	return nil
}

// Write implements io.Writer: bytes land in the current extent's frame,
// the resumable hash absorbs them, and filled extents retire to the flush
// pipeline.
func (w *Writer) Write(p []byte) (int, error) {
	if err := w.writable(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if w.tee != nil {
		if err := w.tee(p); err != nil {
			return 0, w.fail(err)
		}
	}
	written := 0
	for len(p) > 0 {
		if err := w.ensureSpace(); err != nil {
			return written, err
		}
		n := w.curCap - w.curUsed
		if n > len(p) {
			n = len(p)
		}
		w.cur.WriteAt(p[:n], w.curUsed)
		w.absorb(p[:n])
		w.curUsed += n
		written += n
		p = p[n:]
	}
	return written, nil
}

// ReadFrom implements io.ReaderFrom: the hot path of a network PUT. While
// the current extent has free space in a contiguous pool (vmcache) the
// reader fills the frame directly — zero intermediate copies. At extent
// boundaries (and on non-contiguous pools) a bounded scratch read probes
// for more data first, so EOF exactly on a boundary never allocates an
// extent that would stay empty.
func (w *Writer) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		if err := w.writable(); err != nil {
			return total, err
		}
		if w.cur != nil && w.curUsed < w.curCap {
			if cont := w.cur.Contiguous(); cont != nil {
				n, err := r.Read(cont[w.curUsed:w.curCap])
				if n > 0 {
					chunk := cont[w.curUsed : w.curUsed+n]
					if w.tee != nil {
						if terr := w.tee(chunk); terr != nil {
							return total, w.fail(terr)
						}
					}
					ps := w.mgr.Pool.PageSize()
					w.cur.MarkDirty(w.curUsed/ps, (w.curUsed+n+ps-1)/ps)
					w.absorb(chunk)
					w.curUsed += n
					total += int64(n)
				}
				if err == io.EOF {
					return total, nil
				}
				if err != nil {
					return total, w.fail(err)
				}
				continue
			}
		}
		if w.scratch == nil {
			w.scratch = make([]byte, scratchSize)
		}
		n, err := r.Read(w.scratch)
		if n > 0 {
			if _, werr := w.Write(w.scratch[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, w.fail(err)
		}
	}
}

// convertTail replaces a partially-filled last tier extent with an
// exact-size tail extent (§III-A) at seal time — streaming cannot know the
// final size up front, so the tail decision is deferred to Close. The
// resulting layout matches TierTable.Plan exactly.
func (w *Writer) convertTail() error {
	tier := len(w.extents) - 1
	ps := w.mgr.Pool.PageSize()
	remPages := extent.PagesFor(uint64(w.curUsed), ps)
	if remPages == 0 || remPages >= w.tiers.Size(tier) {
		return nil // the extent is exactly full: no tail (Plan does the same)
	}
	tpid, err := w.mgr.Alloc.AllocTail(remPages)
	if err != nil {
		return w.fail(fmt.Errorf("blob: writer: allocate tail: %w", err))
	}
	tf, err := w.mgr.Pool.CreateExtent(w.mt, tpid, int(remPages))
	if err != nil {
		w.mgr.Alloc.FreeTail(tpid, remPages)
		return w.fail(fmt.Errorf("blob: writer: pin tail: %w", err))
	}
	w.copyFrames(w.cur, tf, w.curUsed)
	old := w.cur
	oldPID := w.extents[tier]
	old.SetPreventEvict(false)
	old.Release()
	w.mgr.Pool.Drop(oldPID)
	w.mgr.Alloc.FreeExtent(tier, oldPID)
	w.addPinned(-int64(w.curCap))
	if n := len(w.news); n > 0 && w.news[n-1].PID == oldPID {
		w.news = w.news[:n-1]
	}
	w.extents = w.extents[:tier]
	w.news = append(w.news, FreeSpec{Tier: -1, PID: tpid, Pages: remPages})
	w.tail = extent.Extent{PID: tpid, Pages: remPages}
	w.cur = tf
	w.curCap = int(remPages) * ps
	w.addPinned(int64(w.curCap))
	return nil
}

// Close seals the writer into a Blob State: the final extent (converted to
// a tail when the manager uses them) is retired, the flush pipeline
// drains, and OnSeal stages the result. Close after a failed write (or a
// cancelled context) aborts the writer and returns the error.
func (w *Writer) Close() error {
	if w.aborted {
		return ErrWriterAborted
	}
	if w.sealed {
		return nil
	}
	if w.err == nil {
		if err := w.ctxErr(); err != nil {
			w.fail(err)
		}
	}
	if w.err != nil {
		err := w.err
		w.Abort()
		return err
	}
	if w.base != nil && !w.wroteAny {
		// No-op append: the state — including its tail — is unchanged.
		w.stopFlusher()
		w.sealed = true
		w.st = w.base
		if w.onSeal != nil {
			if err := w.onSeal(w.st, w.pend, nil); err != nil {
				w.sealed = false
				w.Abort()
				return err
			}
		}
		return nil
	}
	if w.base == nil && w.useTail && w.cur != nil {
		if err := w.convertTail(); err != nil {
			w.Abort()
			return err
		}
	}
	if w.cur != nil {
		w.finishCur()
	}
	w.stopFlusher()
	if err := w.flushErr(); err != nil {
		w.fail(err)
		w.Abort()
		return err
	}
	st := &State{Size: w.size, Prefix: w.prefix, Tail: w.tail, Extents: w.extents}
	st.SHA256 = w.h.Sum256()
	st.Intermediate = sha256x.StateOf(w.h)
	w.pend.News = w.news
	w.sealed = true
	w.st = st
	if w.base == nil {
		w.mt.CountUserOps(int64(len(w.extents)) + 1)
	}
	if w.onSeal != nil {
		if err := w.onSeal(st, w.pend, w.frees); err != nil {
			w.sealed = false
			w.st = nil
			w.Abort()
			return err
		}
	}
	return nil
}

// Abort releases everything the writer holds: pinned frames are dropped
// without writeback and every extent it allocated returns to the
// allocator. Idempotent; a no-op after a successful Close.
func (w *Writer) Abort() {
	if w.sealed || w.aborted {
		return
	}
	w.aborted = true
	w.stopFlusher()
	if w.cur != nil {
		w.cur.SetPreventEvict(false)
		w.cur.Release()
		if !w.curOwned {
			// A reopened pre-existing extent: evict the frame so its dirty
			// (appended) pages never reach the device; the extent itself
			// still belongs to the base blob.
			w.mgr.Pool.Drop(w.cur.HeadPID)
		}
		w.cur = nil
	}
	w.pend.Discard(w.news)
	w.news = nil
	w.frees = nil
	if w.onAbort != nil {
		w.onAbort()
	}
}
