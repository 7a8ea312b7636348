package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"blobdb/internal/blob"
	"blobdb/internal/buffer"
	"blobdb/internal/simtime"
	"blobdb/internal/wal"
)

// Txn is a transaction. Create with DB.Begin or DB.BeginCtx; finish with
// exactly one of Commit or Abort. A Txn is single-goroutine.
//
// Durability follows §III-C: mutations stage Blob States in the WAL buffer
// and blob bytes in evict-protected frames; Commit first makes the WAL
// durable (group commit), then flushes the extents — so every blob byte
// reaches the device exactly once — and finally applies deferred extent
// frees. Streaming writers (CreateBlob/AppendBlob) relax the flush order
// for bounded memory; see blob.Writer.
type Txn struct {
	db     *DB
	id     uint64
	ctx    context.Context
	meter  *simtime.Meter
	writer *wal.Writer // taken on the first log append; see log
	done   bool

	pendings []*blob.Pending
	frees    []blob.FreeSpec // applied at commit (deleted blobs, clones)
	undo     []undoOp
	locks    []string
	wrote    bool // any staged write (read-only txns skip commit I/O)

	sharedIncs []blob.FreeSpec // refcount increments staged by dedup (undone on abort)
	regs       []*blob.State   // states to publish in the content index on commit

	open []*blob.Writer // unsealed streaming writers; must close before Commit

	drain         chan struct{} // sentinel marker for DrainCommits
	waitC         chan error    // committer's durability ack
	inflightBytes int64         // pinned bytes, snapshotted at enqueue
	flushErr      error         // extent write-back failure, set on the flight
	commitLSN     uint64        // LSN of the commit record, set by the committer
}

// undoOp restores a tree entry on abort.
type undoOp struct {
	rel      *Relation
	key      []byte
	hadOld   bool
	oldValue []byte
}

// Begin starts a transaction with a background context. meter may be nil;
// benchmarks pass a worker meter to account simulated I/O time.
func (db *DB) Begin(meter *simtime.Meter) *Txn {
	return db.BeginCtx(context.Background(), meter)
}

// BeginCtx starts a transaction bound to ctx: streaming blob writers stop
// when ctx is cancelled, a Commit enqueue under backpressure gives up
// (rolling the transaction back), and Commit stops waiting for its
// durability ack. A nil ctx means context.Background().
func (db *DB) BeginCtx(ctx context.Context, meter *simtime.Meter) *Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &Txn{
		db:    db,
		id:    db.nextTxn.Add(1),
		ctx:   ctx,
		meter: meter,
	}
	// Register with the reclaimer: while this transaction lives, extents
	// freed by concurrent commits stay resident and unrecycled, so any
	// Blob State snapshot it captures keeps reading stable bytes.
	db.beginTxn(t.id)
	return t
}

// log returns the transaction's WAL writer, taking one from the log
// manager on first use. A writer holds a pooled buffer of
// wal.DefaultBufferCap bytes, so read-only transactions never take one.
func (t *Txn) log() *wal.Writer {
	if t.writer == nil {
		t.writer = t.db.wal.NewWriter()
	}
	return t.writer
}

// Context returns the context the transaction was started with.
func (t *Txn) Context() context.Context { return t.ctx }

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

func (t *Txn) check() error {
	if t.done {
		return ErrTxnDone
	}
	return nil
}

func (t *Txn) lock(rel string, key []byte) {
	lk := lockKey(rel, key)
	if t.db.locks.acquire(t.id, lk) {
		t.locks = append(t.locks, lk)
	}
}

// heapPutPayload frames a tuple write for the WAL.
func heapPutPayload(rel string, key, value []byte) []byte {
	out := make([]byte, 0, 2+len(rel)+4+len(key)+len(value))
	var u2 [2]byte
	binary.LittleEndian.PutUint16(u2[:], uint16(len(rel)))
	out = append(out, u2[:]...)
	out = append(out, rel...)
	var u4 [4]byte
	binary.LittleEndian.PutUint32(u4[:], uint32(len(key)))
	out = append(out, u4[:]...)
	out = append(out, key...)
	out = append(out, value...)
	return out
}

func parseHeapPayload(p []byte) (rel string, key, value []byte, err error) {
	if len(p) < 2 {
		return "", nil, nil, fmt.Errorf("core: heap payload too short")
	}
	rl := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < rl+4 {
		return "", nil, nil, fmt.Errorf("core: heap payload truncated")
	}
	rel = string(p[:rl])
	p = p[rl:]
	kl := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) < kl {
		return "", nil, nil, fmt.Errorf("core: heap payload key truncated")
	}
	return rel, p[:kl], p[kl:], nil
}

// applyTree applies a tree write in memory, registers the key as staged
// by t until t lands, and records the undo entry. The caller has taken
// t's WAL writer, which a checkpoint reads through the registry.
func (t *Txn) applyTree(r *Relation, key, taggedValue []byte) {
	r.mu.Lock()
	// The tree never mutates stored value slices (Put swaps pointers), so
	// the undo log can reference the old slice directly.
	old, hadOld := r.tree.Get(key)
	if taggedValue == nil {
		r.tree.Delete(key)
	} else {
		r.tree.Put(key, taggedValue)
	}
	if !hadOld {
		old = nil
	}
	r.stage(t, key, old)
	r.mu.Unlock()
	t.undo = append(t.undo, undoOp{rel: r, key: append([]byte(nil), key...), hadOld: hadOld, oldValue: old})
	t.wrote = true
}

// stageWrite applies a tree write in memory, records the undo entry, and
// logs the logical record.
func (t *Txn) stageWrite(r *Relation, key, taggedValue []byte, recType wal.RecType) error {
	w := t.log()
	t.applyTree(r, key, taggedValue)
	payload := heapPutPayload(r.name, key, taggedValue)
	if _, err := w.AppendLSN(t.meter, t.id, recType, payload); err != nil {
		return err
	}
	return nil
}

// Put stores an inline (non-BLOB) value.
func (t *Txn) Put(relName string, key, value []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	r, err := t.db.Relation(relName)
	if err != nil {
		return err
	}
	t.lock(relName, key)
	if err := t.freeOldBlob(r, key); err != nil {
		return err
	}
	return t.stageWrite(r, key, append([]byte{tagInline}, value...), wal.RecHeapPut)
}

// Get returns the inline value for key.
func (t *Txn) Get(relName string, key []byte) ([]byte, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	r, err := t.db.Relation(relName)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	v, ok := r.tree.Get(key)
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: %q/%q: %w", relName, key, ErrKeyNotFound)
	}
	tag, payload, err := decodeValue(v)
	if err != nil {
		return nil, err
	}
	if tag != tagInline {
		return nil, fmt.Errorf("core: %q/%q: %w", relName, key, ErrNotBlob)
	}
	return append([]byte(nil), payload...), nil
}

// newBlobWriter wires a blob.Writer into the transaction: the seal hook
// frees the replaced blob (create mode), stages the tuple and its WAL
// Blob State record, and refreshes the indexes; the abort hook just
// unregisters the writer. base selects append mode, and resuming a base
// runs the dedup mutation gate here — NOT in the callers — so every
// append-mode writer deregisters the base's content-index entry (a grown
// blob no longer matches its old hash, and no later PUT may start
// sharing its about-to-diverge sequence) and clones the growth frontier
// when the sequence is shared instead of writing the co-owner's bytes in
// place.
func (t *Txn) newBlobWriter(ctx context.Context, relName string, key []byte, base *blob.State, stream bool) (*blob.Writer, error) {
	cloneFrontier := false
	if base != nil {
		cloneFrontier = t.db.dedupOnMutate(base)
	}
	return t.newBlobWriterOpts(ctx, relName, key, base, stream, cloneFrontier)
}

// newBlobWriterOpts is newBlobWriter for callers that already ran the
// dedup mutation gate on base and hold its clone-frontier verdict.
func (t *Txn) newBlobWriterOpts(ctx context.Context, relName string, key []byte, base *blob.State, stream, cloneFrontier bool) (*blob.Writer, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	r, err := t.db.Relation(relName)
	if err != nil {
		return nil, err
	}
	t.lock(relName, key)
	if ctx == nil {
		ctx = t.ctx
	}
	keyCopy := append([]byte(nil), key...)
	var w *blob.Writer
	w, err = t.db.blobs.NewWriter(blob.WriterOpts{
		Meter:         t.meter,
		Ctx:           ctx,
		Stream:        stream,
		Base:          base,
		CloneFrontier: cloneFrontier,
		OnAbort:       func() { t.dropWriter(w) },
		OnSeal: func(st *blob.State, p *blob.Pending, frees []blob.FreeSpec) error {
			t.dropWriter(w)
			if base == nil {
				// Content-addressed dedup: adopt an existing committed
				// blob's extent sequence when the content matches —
				// before the old blob at this key is scheduled for
				// freeing, so an identical overwrite shares it.
				if shared := t.tryDedup(st, p); shared != nil {
					st = shared
				}
			}
			return t.stageBlob(r, keyCopy, base, st, p, frees)
		},
	})
	if err != nil {
		return nil, err
	}
	t.open = append(t.open, w)
	return w, nil
}

func (t *Txn) dropWriter(w *blob.Writer) {
	for i, o := range t.open {
		if o == w {
			t.open = append(t.open[:i], t.open[i+1:]...)
			return
		}
	}
}

// stageBlob makes st the BLOB column of key. With base nil the key's old
// blob is scheduled for freeing; with base set (an append or in-place
// update of base) only base's index entries go. p's flush work (nil for an
// adopted sequence) and frees join the transaction, the tuple and its Blob
// State record are staged, the indexes refreshed, and st is queued for the
// content index at commit.
func (t *Txn) stageBlob(r *Relation, key []byte, base, st *blob.State, p *blob.Pending, frees []blob.FreeSpec) error {
	if base == nil {
		if err := t.freeOldBlob(r, key); err != nil {
			return err
		}
	} else {
		t.updateIndexesOnDelete(r, key, base)
	}
	if p != nil {
		t.pendings = append(t.pendings, p)
	}
	t.frees = append(t.frees, frees...)
	if err := t.stageWrite(r, key, append([]byte{tagBlob}, st.Encode()...), wal.RecBlobState); err != nil {
		return err
	}
	t.updateIndexesOnPutState(r, key, st)
	t.regs = append(t.regs, st)
	return nil
}

// LockKey takes the transaction's exclusive record lock on (rel, key)
// without staging a write. Plain reads don't lock — but a reader that
// must keep a blob's extents stable beyond an instant (streaming them to
// another engine during a reshard, say) locks the row first so a
// concurrent overwrite cannot commit and free the pinned extents
// mid-read. Released with the transaction's other locks at Commit/Abort.
func (t *Txn) LockKey(relName string, key []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	t.lock(relName, key)
	return nil
}

// CreateBlob opens a streaming writer that stores the bytes written to it
// as the BLOB column of key: extents are allocated incrementally from the
// tier table as bytes arrive, completed extents flush in the background
// while later ones fill (peak memory is O(one extent), not O(blob)), and
// the resumable SHA-256 absorbs every chunk. Close seals the Blob State
// and stages the tuple; Abort discards everything. ctx cancellation (nil:
// the transaction's context) stops the write mid-stream. The writer must
// be closed or aborted before the transaction commits.
func (t *Txn) CreateBlob(ctx context.Context, relName string, key []byte) (*blob.Writer, error) {
	return t.newBlobWriter(ctx, relName, key, nil, true)
}

// AppendBlob opens a streaming writer that appends to the BLOB at key
// (§III-D): the SHA-256 resumes from the stored intermediate state and
// only the new bytes are hashed and written — existing content is never
// reloaded.
func (t *Txn) AppendBlob(ctx context.Context, relName string, key []byte) (*blob.Writer, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	t.lock(relName, key)
	st, err := t.BlobState(relName, key)
	if err != nil {
		return nil, err
	}
	// Clone-on-divergence: while the sequence is shared, the growth
	// frontier (a partially filled last extent) must be cloned rather than
	// reopened in place — the co-owner keeps reading the old bytes. Whole
	// shared extents stay shared; only the diverging one is copied.
	cloneFrontier := t.db.dedupOnMutate(st)
	return t.newBlobWriterOpts(ctx, relName, key, st, true, cloneFrontier)
}

// freeOldBlob schedules the previous BLOB of key (if any) for commit-time
// freeing and removes it from indexes.
func (t *Txn) freeOldBlob(r *Relation, key []byte) error {
	r.mu.RLock()
	v, ok := r.tree.Get(key)
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	tag, payload, err := decodeValue(v)
	if err != nil || tag != tagBlob {
		return nil
	}
	st, err := blob.Decode(payload)
	if err != nil {
		return fmt.Errorf("core: stored blob state corrupt: %w", err)
	}
	// Deregister the content entry so no later PUT starts sharing a doomed
	// sequence. The frees stay unfiltered: whether each extent is freed or
	// merely dereferenced is decided when they APPLY (db.applyFrees), which
	// is what makes concurrent share-vs-delete races safe.
	t.db.dedupOnMutate(st)
	t.frees = append(t.frees, t.db.blobs.Delete(st)...)
	t.updateIndexesOnDelete(r, key, st)
	return nil
}

// BlobState returns the decoded Blob State for key.
func (t *Txn) BlobState(relName string, key []byte) (*blob.State, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	r, err := t.db.Relation(relName)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	v, ok := r.tree.Get(key)
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: %q/%q: %w", relName, key, ErrKeyNotFound)
	}
	tag, payload, err := decodeValue(v)
	if err != nil {
		return nil, err
	}
	if tag != tagBlob {
		return nil, fmt.Errorf("core: %q/%q: %w", relName, key, ErrNotBlob)
	}
	return blob.Decode(payload)
}

// ReadBlob looks up the Blob State, loads the extents, and invokes fn with
// the aliased view (the §III-E FUSE read path uses exactly this).
func (t *Txn) ReadBlob(relName string, key []byte, fn func(view *buffer.BlobView) error) error {
	st, err := t.BlobState(relName, key)
	if err != nil {
		return err
	}
	return t.ReadState(st, fn)
}

// ReadContent is the local byte source of a transfer (Content): one lookup
// pins the BLOB at key, and fn streams it from the aliased view with the
// ETag and size of that same Blob State — the bytes are never
// materialised. A key that holds no BLOB reports ErrBlobVanished.
func (t *Txn) ReadContent(relName string, key []byte, fn ContentFn) error {
	st, err := t.BlobState(relName, key)
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrNotBlob) || errors.Is(err, ErrRelationNotFound) {
		return ErrBlobVanished
	}
	if err != nil {
		return err
	}
	return t.ReadState(st, func(v *buffer.BlobView) error {
		return fn(st.ETag(), st.Size, io.NewSectionReader(v, 0, int64(v.Len())))
	})
}

// ReadState loads the extents of st — a Blob State this transaction looked
// up — and invokes fn with the aliased view, pinned for exactly the
// callback. Reading the state already looked up, rather than looking the
// key up again, keeps the bytes those of the state's ETag.
func (t *Txn) ReadState(st *blob.State, fn func(view *buffer.BlobView) error) error {
	h, err := t.db.blobs.Read(t.meter, st)
	if err != nil {
		return err
	}
	defer h.Close(t.meter)
	return fn(h.View())
}

// ReadBlobBytes returns a copy of the BLOB content.
func (t *Txn) ReadBlobBytes(relName string, key []byte) ([]byte, error) {
	st, err := t.BlobState(relName, key)
	if err != nil {
		return nil, err
	}
	return t.db.blobs.ReadAll(t.meter, st)
}

// DeleteBlob removes the tuple and schedules its extents for reuse at
// commit.
func (t *Txn) DeleteBlob(relName string, key []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	r, err := t.db.Relation(relName)
	if err != nil {
		return err
	}
	t.lock(relName, key)
	r.mu.RLock()
	_, ok := r.tree.Get(key)
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: %q/%q: %w", relName, key, ErrKeyNotFound)
	}
	if err := t.freeOldBlob(r, key); err != nil {
		return err
	}
	return t.stageWrite(r, key, nil, wal.RecHeapDelete)
}

// UpdateBlob overwrites [off, off+len(data)) of the BLOB at key, choosing
// the delta or clone scheme (§III-D).
func (t *Txn) UpdateBlob(relName string, key []byte, off uint64, data []byte, scheme blob.UpdateScheme) error {
	if err := t.check(); err != nil {
		return err
	}
	r, err := t.db.Relation(relName)
	if err != nil {
		return err
	}
	t.lock(relName, key)
	st, err := t.BlobState(relName, key)
	if err != nil {
		return err
	}
	if t.db.dedupOnMutate(st) {
		// The sequence is shared: delta updates mutate extent bytes in
		// place, which would rewrite the co-owner's content. Force the
		// clone scheme — only the affected extents are copied, the rest
		// stay shared (clone-on-divergence).
		scheme = blob.UpdateClone
	}
	res, err := t.db.blobs.Update(t.meter, st, off, data, scheme)
	if err != nil {
		return err
	}
	t.pendings = append(t.pendings, res.Pending)
	t.frees = append(t.frees, res.Frees...)
	if res.Delta != nil {
		if _, err := t.log().AppendLSN(t.meter, t.id, wal.RecBlobDelta, res.Delta); err != nil {
			return err
		}
		t.wrote = true
	}
	return t.stageBlob(r, key, st, res.State, nil, nil)
}

// Scan iterates tuples with key >= from in order; fn receives the key and,
// for BLOB columns, the Blob State (value nil). Return false to stop.
func (t *Txn) Scan(relName string, from []byte, fn func(key []byte, inline []byte, st *blob.State) bool) error {
	if err := t.check(); err != nil {
		return err
	}
	r, err := t.db.Relation(relName)
	if err != nil {
		return err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var ferr error
	r.tree.Ascend(from, func(k, v []byte) bool {
		tag, payload, err := decodeValue(v)
		if err != nil {
			ferr = err
			return false
		}
		if tag == tagBlob {
			st, err := blob.Decode(payload)
			if err != nil {
				ferr = err
				return false
			}
			return fn(k, nil, st)
		}
		return fn(k, payload, nil)
	})
	return ferr
}

// Commit hands the transaction to the group committer and returns once its
// batch's commit record is durable and its extents are flushed (§III-C);
// locks and deferred frees are released by then too. Concurrent committers
// share WAL syncs: each waits only for its own batch. A read-only
// transaction commits inline. Commit fails with ErrBlobWriterOpen while a
// streaming writer is unsealed. A context cancellation during the
// backpressured enqueue rolls the transaction back and returns the
// context's error; one while waiting for the ack returns the context's
// error at once, and the commit still completes in the background (the
// ack channel is buffered), so a handler whose client hung up leaks no
// goroutine.
func (t *Txn) Commit() error {
	ack, err := t.commit()
	if err != nil || ack == nil {
		return err
	}
	select {
	case err := <-ack:
		return err
	case <-t.ctx.Done():
		return t.ctx.Err()
	}
}

// CommitWait is Commit, kept for perfbench's engine driver; it goes with
// that module's next change.
func (t *Txn) CommitWait() error { return t.Commit() }

// CommitAsync commits like Commit but returns the durability ack channel
// instead of blocking on it, so one goroutine can enqueue several
// transactions into the same group-commit batch (under DB.HoldCommits) and
// collect the acks afterwards. The channel is buffered: the committer
// never blocks delivering the ack. For a read-only transaction the
// returned channel already holds nil.
func (t *Txn) CommitAsync() (<-chan error, error) {
	ack, err := t.commit()
	if err == nil && ack == nil {
		done := make(chan error, 1)
		done <- nil
		ack = done
	}
	return ack, err
}

// commit finishes a read-only transaction inline (returning a nil ack
// channel) and enqueues a write transaction on the committer.
func (t *Txn) commit() (<-chan error, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if len(t.open) > 0 {
		return nil, ErrBlobWriterOpen
	}
	t.done = true
	if !t.wrote {
		// Read-only transaction: nothing to make durable.
		t.writer.Close()
		t.releaseLocks()
		t.db.endTxn(t.id)
		return nil, nil
	}
	// Locks are released by the committer after the flush, preserving
	// write-write ordering; the enqueue blocks under byte-budget
	// backpressure.
	t.waitC = make(chan error, 1)
	if err := t.db.commit.enqueue(t); err != nil {
		// Cancelled before the handoff: the committer never saw the
		// transaction, so roll it back here.
		t.rollback()
		return nil, err
	}
	return t.waitC, nil
}

// Abort rolls the transaction back: open streaming writers are aborted,
// tree changes are undone in reverse, pending extents are discarded, and
// nothing (durable) reaches the device.
func (t *Txn) Abort() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	for len(t.open) > 0 {
		t.open[len(t.open)-1].Abort() // unregisters itself via OnAbort
	}
	t.rollback()
	return nil
}

// rollback undoes every staged effect of the transaction. The caller has
// already marked it done.
func (t *Txn) rollback() {
	defer t.writer.Close()
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		u.rel.mu.Lock()
		if u.hadOld {
			u.rel.tree.Put(u.key, u.oldValue)
		} else {
			u.rel.tree.Delete(u.key)
		}
		u.rel.unstage(t, u.key)
		u.rel.mu.Unlock()
	}
	t.db.rebuildIndexTouched(t.undo)
	t.db.undoShares(t.id, t.sharedIncs)
	// A lock-free reader that saw the staged tree may still pin the
	// transaction's own extents, so they leave the pool and return to the
	// allocator through the reclaimer, like a committed free. A
	// pre-existing extent that holds uncommitted bytes is dropped now,
	// before a later writer can fix it.
	var frees []blob.FreeSpec
	for _, p := range t.pendings {
		for _, pid := range p.Unpin() {
			if !slices.ContainsFunc(p.News, func(s blob.FreeSpec) bool { return s.PID == pid }) {
				t.db.pool.Drop(pid)
			}
		}
		frees = append(frees, p.News...)
	}
	t.db.deferFrees(t.id, nil, frees)
	t.releaseLocks()
	t.db.endTxn(t.id)
}

func (t *Txn) releaseLocks() {
	for i := len(t.locks) - 1; i >= 0; i-- {
		t.db.locks.release(t.locks[i])
	}
	t.locks = nil
}

// CrashBeforeExtentFlush is a failure-injection hook for tests and
// examples: it makes the transaction's WAL records (including the commit
// record) durable but "crashes" before the extent flush — the §III-C
// window where recovery must fail the transaction via SHA-256 validation.
// The in-memory DB is left inconsistent on purpose; recover from the
// device with Recover.
func CrashBeforeExtentFlush(t *Txn) error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	w := t.log()
	defer w.Close()
	t.db.endTxn(t.id)
	// This commit record bypasses the committer and its extents never
	// land, so no later flight may advance the watermark past it.
	t.db.commit.stopWatermark()
	if _, err := w.CommitNoSync(t.meter, t.id); err != nil {
		return err
	}
	return t.db.wal.Sync(t.meter)
}

// WriteAmplification reports device bytes written divided by logical blob
// bytes committed — used to assert the single-flush property end to end.
func (db *DB) WriteAmplification(logicalBytes int64) float64 {
	if logicalBytes == 0 {
		return 0
	}
	return float64(db.dev.Stats().BytesWritten()) / float64(logicalBytes)
}
