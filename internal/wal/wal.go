// Package wal implements the write-ahead log of the reproduction's storage
// engine: distributed per-worker log writers, leader-based group commit,
// rotated segments with monotonic LSNs, and checkpoint-driven truncation.
//
// Two BLOB logging modes matter for the paper's evaluation (§V-B):
//
//   - In the proposed design ("Our"), the WAL carries only the small Blob
//     State record; blob bytes reach the device exactly once, at commit,
//     outside the log (§III-C).
//   - In the physical-logging baseline ("Our.physlog"), whole BLOBs are
//     appended to the WAL as segments, doubling the write volume and
//     inflating the log so checkpoints trigger more often.
//
// The log region is divided into fixed-size segment slots. Each segment
// starts with a CRC-framed header page carrying a monotonically increasing
// segment ID and the LSN base, followed by CRC-framed flush blocks, and
// ends with a seal block once rotated away from. Checkpoints record the
// checkpoint LSN and truncate every segment at or below it, so recovery
// replays only records with LSN above the checkpoint and replication can
// ship sealed (and tailing) segments to read replicas.
//
// The package is policy-free about record payloads: the transaction layer
// defines them. Records are framed with a CRC so recovery can scan the
// segments and stop at the first torn block.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// RecType distinguishes log record kinds. The transaction layer assigns
// meaning; the WAL only frames them.
type RecType uint8

// Record types used across the engine.
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecBlobState  // Blob State insert/update: the only blob-related record in "Our"
	RecBlobData   // physlog: a segment of raw blob bytes
	RecBlobDelta  // delta update of an in-place blob modification
	RecHeapPut    // logical tuple insert/update
	RecHeapDelete // logical tuple delete
	RecFreeExtent // extent freed at commit
	RecCheckpoint
	RecRefDelta // refcount ledger mutation batch (dedup share / deferred release)
	// RecLanded carries the extents-landed watermark: an 8-byte commit LSN
	// at or below which every committed transaction's extent writes are
	// durable. Logged by the group committer with transaction id 0.
	RecLanded
)

// Record is one framed log record.
type Record struct {
	LSN     uint64
	TxnID   uint64
	Type    RecType
	Payload []byte
}

const recHeaderSize = 8 + 8 + 1 + 4 + 4 // lsn, txn, type, len, crc

// DefaultSegments is the number of segment slots the log region is divided
// into. Small enough that each slot amortizes its header page, large
// enough that checkpoint-driven truncation frees space incrementally.
const DefaultSegments = 8

// segment is the in-memory state of one live on-device segment.
type segment struct {
	id       uint64 // monotonically increasing, never reused
	slot     int    // slot index in the log region
	baseLSN  uint64 // LSN counter value when the segment was opened
	lastLSN  uint64 // highest LSN flushed into the segment
	writePos int    // next free page within the slot (page 0 is the header)
	sealed   bool
}

// SegmentInfo describes one live segment for tests, replication status,
// and recovery reporting.
type SegmentInfo struct {
	ID      uint64
	Slot    int
	BaseLSN uint64 // LSN counter value at open; buffered records at or below it may land here
	LastLSN uint64 // highest LSN flushed into the segment (0 if empty)
	Sealed  bool
	Pages   int // pages written, including the header page
}

// Manager owns the log region of the device and coordinates flushing,
// rotation, and checkpoints. Create per-worker Writers with NewWriter.
type Manager struct {
	dev       storage.Device
	start     storage.PID // log region [start, end)
	end       storage.PID
	pageSize  int
	segCount  int
	segPages  int           // pages per slot
	lastLSN   atomic.Uint64 // last assigned LSN (first record gets 1)
	bufferCap int

	mu        sync.Mutex
	segs      []*segment // live segments, ascending by id; last may be cur
	cur       *segment   // tailing segment, nil until the next flush opens one
	nextSegID uint64     // id the next opened segment receives
	lastSlot  int        // slot of the most recently opened segment
	truncLSN  uint64     // records at or below this LSN may have been truncated
	sinceCkpt int64      // bytes logged since the last checkpoint
	padBuf    []byte     // reusable flush staging buffer (guarded by mu)

	flushedLSN atomic.Uint64 // highest LSN in any flushed block
	syncedLSN  atomic.Uint64 // highest LSN known durable (advanced by group sync)

	// CheckpointThreshold triggers Checkpoint when exceeded. Zero disables
	// automatic checkpoints (the log still forces one when the slot ring is
	// full).
	CheckpointThreshold int64
	// OnCheckpoint is invoked (with the manager lock held) to flush dirty
	// state so the log can be truncated. ckptLSN is the highest LSN
	// assigned before the checkpoint; persist it so recovery replays only
	// records above it.
	OnCheckpoint func(m *simtime.Meter, ckptLSN uint64) error
	// OnCheckpointDurable, if set, is invoked (with the manager lock held)
	// once the sync after OnCheckpoint has returned, before the log is
	// truncated: a write it issues reaches the device only after the
	// image is durable.
	OnCheckpointDurable func(m *simtime.Meter) error
	// OnSeal, if set, is invoked (with the manager lock held) after a
	// segment is sealed; replication uses it to nudge shipping.
	OnSeal func(info SegmentInfo)

	checkpoints atomic.Int64
	flushes     atomic.Int64
	bytesLogged atomic.Int64

	// bufPool recycles writer buffers: transactions are created per
	// operation in the benchmarks, and a fresh multi-megabyte buffer per
	// transaction would be pure allocator churn.
	bufPool sync.Pool

	// Group commit state: gcEpoch increments when a sync *starts*; a
	// committer is durable once a sync that started after its flush has
	// completed (gcCompleted > its arrival epoch).
	gcMu        sync.Mutex
	gcSyncing   bool
	gcCond      *sync.Cond
	gcEpoch     uint64
	gcCompleted uint64
}

// DefaultBufferCap is the default per-worker WAL buffer size: 10 MB, the
// value the paper's physlog discussion uses.
const DefaultBufferCap = 10 << 20

// NewManager creates a WAL over device pages [start, end).
func NewManager(dev storage.Device, start, end storage.PID) *Manager {
	if end <= start {
		panic("wal: empty log region")
	}
	m := &Manager{
		dev:       dev,
		start:     start,
		end:       end,
		pageSize:  dev.PageSize(),
		bufferCap: DefaultBufferCap,
		nextSegID: 1,
		lastSlot:  -1,
	}
	m.setSegments(DefaultSegments)
	m.gcCond = sync.NewCond(&m.gcMu)
	return m
}

// SetSegments overrides the number of segment slots. Must be called before
// the first append; n is clamped so every slot holds a header page, at
// least one flush page, and a seal page.
func (w *Manager) SetSegments(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur != nil || len(w.segs) > 0 {
		panic("wal: SetSegments after first append")
	}
	w.setSegments(n)
}

func (w *Manager) setSegments(n int) {
	regionPages := int(w.end - w.start)
	if n < 2 {
		n = 2
	}
	for n > 2 && regionPages/n < 3 {
		n--
	}
	if regionPages/n < 3 {
		panic(fmt.Sprintf("wal: log region of %d pages too small for %d segments", regionPages, n))
	}
	w.segCount = n
	w.segPages = regionPages / n
}

// Segments returns the live segments in ascending id order.
func (w *Manager) Segments() []SegmentInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]SegmentInfo, 0, len(w.segs))
	for _, s := range w.segs {
		out = append(out, s.info())
	}
	return out
}

func (s *segment) info() SegmentInfo {
	last := s.lastLSN
	if last <= s.baseLSN {
		last = 0
	}
	return SegmentInfo{ID: s.id, Slot: s.slot, BaseLSN: s.baseLSN,
		LastLSN: last, Sealed: s.sealed, Pages: s.writePos}
}

// Region returns the device page range [start, end) the log occupies.
// Crash-simulation harnesses use it to classify device operations (WAL
// append vs checkpoint vs extent flush) when choosing crash points.
func (w *Manager) Region() (start, end storage.PID) {
	return w.start, w.end
}

// SetBufferCap overrides the per-worker buffer capacity for Writers created
// afterwards.
func (w *Manager) SetBufferCap(n int) {
	if n < 4096 {
		n = 4096
	}
	w.bufferCap = n
}

// Checkpoints reports how many checkpoints have run. The paper's argument
// that blob-in-WAL logging "triggers WAL checkpointing more frequently" is
// asserted against this counter.
func (w *Manager) Checkpoints() int64 { return w.checkpoints.Load() }

// BytesLogged reports the total log volume written.
func (w *Manager) BytesLogged() int64 { return w.bytesLogged.Load() }

// Flushes reports the number of buffer flushes to the device.
func (w *Manager) Flushes() int64 { return w.flushes.Load() }

// CapacityBytes returns the log region size.
func (w *Manager) CapacityBytes() int64 {
	return int64(w.end-w.start) * int64(w.pageSize)
}

// LastLSN returns the highest LSN assigned so far (0 before the first
// append).
func (w *Manager) LastLSN() uint64 { return w.lastLSN.Load() }

// DurableLSN returns the highest LSN known durable: every record at or
// below it has been flushed and covered by a completed device sync (or
// folded into a durable checkpoint image).
func (w *Manager) DurableLSN() uint64 { return w.syncedLSN.Load() }

// TruncatedLSN returns the truncation horizon: records at or below it may
// no longer be readable from the log (they are covered by the checkpoint
// image instead). Replication uses it to detect that a replica must
// resync.
func (w *Manager) TruncatedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncLSN
}

// maxFlushPayload is the largest flush-block payload that fits one slot:
// the slot loses its header page and reserves one page for the seal block.
func (w *Manager) maxFlushPayload() int {
	return (w.segPages-2)*w.pageSize - flushHeaderLen
}

// MaxRecordBytes returns the largest record payload a Writer accepts:
// bounded by both the writer buffer and the segment flush capacity.
func (w *Manager) MaxRecordBytes() int {
	n := w.maxFlushPayload()
	if w.bufferCap < n {
		n = w.bufferCap
	}
	return n - recHeaderSize
}

// Writer is a per-worker log buffer (distributed logging, §V-A). Call
// Close when the transaction finishes so the buffer returns to the pool.
type Writer struct {
	mgr    *Manager
	buf    []byte
	maxLSN uint64 // highest LSN staged in buf

	commitLSN atomic.Uint64 // LSN of the commit record CommitNoSync appended
	written   atomic.Uint64 // highest LSN of a block this writer wrote to the device
}

// initialWriterBuf is a fresh writer buffer's capacity. Buffers grow by
// doubling up to the manager's buffer cap, so a transaction that logs a
// few small records never allocates the full cap; flush points depend on
// the cap alone (effCap), not on how far a buffer has grown.
const initialWriterBuf = 4 << 10

// NewWriter creates a worker-local writer backed by a pooled buffer.
func (w *Manager) NewWriter() *Writer {
	if b, ok := w.bufPool.Get().(*[]byte); ok {
		return &Writer{mgr: w, buf: (*b)[:0]}
	}
	return &Writer{mgr: w, buf: make([]byte, 0, min(initialWriterBuf, w.bufferCap))}
}

// Close returns the writer's buffer to the pool. The writer must not be
// used afterwards. Closing a nil writer does nothing.
func (l *Writer) Close() {
	if l == nil || l.buf == nil {
		return
	}
	b := l.buf[:0]
	l.mgr.bufPool.Put(&b)
	l.buf = nil
}

// BufferCap returns the capacity the writer's buffer has grown to.
func (l *Writer) BufferCap() int { return cap(l.buf) }

// Buffered returns the bytes currently staged in the writer.
func (l *Writer) Buffered() int { return len(l.buf) }

// effCap is the largest staged byte count the writer flushes as one block:
// the manager's buffer cap, bounded by what fits in one segment slot.
func (l *Writer) effCap() int {
	return min(l.mgr.maxFlushPayload(), l.mgr.bufferCap)
}

// reserve grows the buffer to hold n more bytes: doubling, but never past
// effCap, which the caller has already checked n against.
func (l *Writer) reserve(n int) {
	need := len(l.buf) + n
	if need <= cap(l.buf) {
		return
	}
	c := min(max(2*cap(l.buf), need), l.effCap())
	nb := make([]byte, len(l.buf), c)
	copy(nb, l.buf)
	l.buf = nb
}

// AppendLSN frames a record into the worker buffer, returning its
// monotonically increasing LSN. If the buffer cannot hold the record, it
// is flushed to the device first — this is the stall the physlog baseline
// pays on large BLOBs. Payloads larger than one segment flush are split by
// the caller (AppendBlobData does this).
func (l *Writer) AppendLSN(m *simtime.Meter, txnID uint64, t RecType, payload []byte) (uint64, error) {
	need := recHeaderSize + len(payload)
	if need > l.effCap() {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds flush capacity %d", need, l.effCap())
	}
	if len(l.buf)+need > l.effCap() {
		if err := l.Flush(m); err != nil {
			return 0, err
		}
	}
	l.reserve(need)
	lsn := l.mgr.lastLSN.Add(1)
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], lsn)
	binary.LittleEndian.PutUint64(hdr[8:], txnID)
	hdr[16] = byte(t)
	binary.LittleEndian.PutUint32(hdr[17:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[21:], crc32.ChecksumIEEE(payload))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	if lsn > l.maxLSN {
		l.maxLSN = lsn
	}
	m.CountUserOps(1)
	return lsn, nil
}

// AppendBlobData appends raw blob bytes as RecBlobData segments, splitting
// to fit the buffer — the physlog path ("we split every BLOB into small
// segments and append these segments to the WAL buffer").
func (l *Writer) AppendBlobData(m *simtime.Meter, txnID uint64, data []byte) error {
	maxSeg := l.effCap() - recHeaderSize
	for len(data) > 0 {
		n := len(data)
		if n > maxSeg {
			n = maxSeg
		}
		if _, err := l.AppendLSN(m, txnID, RecBlobData, data[:n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// Flush writes the buffered records to the current segment (without
// syncing), rotating to a fresh segment first when they do not fit.
func (l *Writer) Flush(m *simtime.Meter) error {
	if len(l.buf) == 0 {
		return nil
	}
	if err := l.mgr.writeOut(m, l, l.maxLSN); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	l.maxLSN = 0
	return nil
}

// CommitNoSync appends the commit record and flushes the buffer to the log
// region without waiting for durability, returning the commit record's
// LSN. The caller must make the log durable with Manager.Sync before
// acknowledging the transaction — the group committer uses this so one
// sync covers a whole batch.
func (l *Writer) CommitNoSync(m *simtime.Meter, txnID uint64) (uint64, error) {
	lsn, err := l.AppendLSN(m, txnID, RecCommit, nil)
	if err != nil {
		return 0, err
	}
	l.commitLSN.Store(lsn)
	return lsn, l.Flush(m)
}

// CommitWritten reports whether the commit record CommitNoSync appended is
// in a block already written to the log region (not necessarily synced).
// Inside OnCheckpoint, which runs under the manager lock, the answer
// cannot change while the hook runs.
func (l *Writer) CommitWritten() bool {
	c := l.commitLSN.Load()
	return c != 0 && l.written.Load() >= c
}

// Sync makes every flushed record durable. Concurrent callers share one
// device sync (group commit, §V-A).
func (w *Manager) Sync(m *simtime.Meter) error { return w.groupSync(m) }

// On-device framing. Every structure is CRC-framed so a cold recovery scan
// can walk the region with no in-memory state.
//
// Segment header (page 0 of a slot):
//
//	magic u32 | version u32 | segID u64 | baseLSN u64 | crc32(first 24B) u32
//
// Flush block (page-aligned, never crossing a slot boundary):
//
//	magic u32 | payloadLen u32 | crc32(payload) u32 | segID u64 | reserved u32
//
// A seal block is a flush block with the seal magic and no payload; it
// marks the segment complete, so recovery can distinguish "rotated away"
// from "torn mid-write".
const (
	segMagic       = 0x57534547 // "WSEG"
	segVersion     = 1
	segHeaderLen   = 28
	flushMagic     = 0x57414C46 // "WALF"
	sealMagic      = 0x5753454C // "WSEL"
	flushHeaderLen = 24
)

// slotBase returns the first device page of slot i.
func (w *Manager) slotBase(i int) storage.PID {
	return w.start + storage.PID(i*w.segPages)
}

// encodeSegmentHeader serializes a segment header into a page-sized buffer.
func encodeSegmentHeader(buf []byte, id, baseLSN uint64) {
	binary.LittleEndian.PutUint32(buf[0:], segMagic)
	binary.LittleEndian.PutUint32(buf[4:], segVersion)
	binary.LittleEndian.PutUint64(buf[8:], id)
	binary.LittleEndian.PutUint64(buf[16:], baseLSN)
	binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
}

// decodeSegmentHeader parses a segment header page. ok=false means the
// page does not hold a valid header (empty slot, torn write, or foreign
// bytes) — never an error, recovery treats it as "no segment here".
func decodeSegmentHeader(buf []byte) (id, baseLSN uint64, ok bool) {
	if len(buf) < segHeaderLen {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != segMagic {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(buf[4:]) != segVersion {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(buf[24:]) != crc32.ChecksumIEEE(buf[:24]) {
		return 0, 0, false
	}
	id = binary.LittleEndian.Uint64(buf[8:])
	baseLSN = binary.LittleEndian.Uint64(buf[16:])
	if id == 0 {
		return 0, 0, false
	}
	return id, baseLSN, true
}

// writeOut appends l's buffer to the tailing segment as one framed flush
// block, rotating (and, when the slot ring is full, checkpointing) first if
// the block does not fit. The writer's written LSN advances before a
// threshold checkpoint runs, so that checkpoint sees the block as written.
func (w *Manager) writeOut(m *simtime.Meter, l *Writer, maxLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := l.buf
	total := flushHeaderLen + len(buf)
	pages := (total + w.pageSize - 1) / w.pageSize
	if pages > w.segPages-2 {
		return fmt.Errorf("wal: flush of %d pages exceeds segment capacity %d", pages, w.segPages-2)
	}
	// Rotate when the block would not leave room for the seal page.
	if w.cur == nil || w.cur.writePos+pages > w.segPages-1 {
		if err := w.rotateLocked(m); err != nil {
			return err
		}
	}
	if cap(w.padBuf) < pages*w.pageSize {
		w.padBuf = make([]byte, pages*w.pageSize)
	}
	padded := w.padBuf[:pages*w.pageSize]
	clear(padded[flushHeaderLen+len(buf):])
	binary.LittleEndian.PutUint32(padded[0:], flushMagic)
	binary.LittleEndian.PutUint32(padded[4:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(padded[8:], crc32.ChecksumIEEE(buf))
	binary.LittleEndian.PutUint64(padded[12:], w.cur.id)
	binary.LittleEndian.PutUint32(padded[20:], 0)
	copy(padded[flushHeaderLen:], buf)
	pid := w.slotBase(w.cur.slot) + storage.PID(w.cur.writePos)
	if err := w.dev.WritePages(m, pid, pages, padded); err != nil {
		return err
	}
	w.cur.writePos += pages
	l.written.Store(maxLSN)
	if maxLSN > w.cur.lastLSN {
		w.cur.lastLSN = maxLSN
	}
	if maxLSN > w.flushedLSN.Load() {
		w.flushedLSN.Store(maxLSN)
	}
	w.sinceCkpt += int64(len(buf))
	w.bytesLogged.Add(int64(len(buf)))
	w.flushes.Add(1)
	if w.CheckpointThreshold > 0 && w.sinceCkpt >= w.CheckpointThreshold {
		return w.checkpointLocked(m)
	}
	return nil
}

// rotateLocked seals the tailing segment (if any) and opens a fresh one in
// a free slot, forcing a checkpoint first when every slot holds a live
// segment — the segmented form of "log full".
func (w *Manager) rotateLocked(m *simtime.Meter) error {
	if w.cur != nil {
		if err := w.sealLocked(m); err != nil {
			return err
		}
	}
	slot, ok := w.freeSlotLocked()
	if !ok {
		if err := w.checkpointLocked(m); err != nil {
			return err
		}
		slot, ok = w.freeSlotLocked()
		if !ok {
			return fmt.Errorf("wal: no free segment slot after checkpoint")
		}
	}
	return w.openLocked(m, slot)
}

// freeSlotLocked picks the next slot (ring order after the most recently
// opened) not occupied by a live segment.
func (w *Manager) freeSlotLocked() (int, bool) {
	used := make(map[int]bool, len(w.segs))
	for _, s := range w.segs {
		used[s.slot] = true
	}
	for i := 1; i <= w.segCount; i++ {
		slot := (w.lastSlot + i + w.segCount) % w.segCount
		if !used[slot] {
			return slot, true
		}
	}
	return 0, false
}

// openLocked writes a fresh segment header into slot and makes it the
// tailing segment.
func (w *Manager) openLocked(m *simtime.Meter, slot int) error {
	if cap(w.padBuf) < w.pageSize {
		w.padBuf = make([]byte, w.pageSize)
	}
	page := w.padBuf[:w.pageSize]
	clear(page)
	id := w.nextSegID
	base := w.lastLSN.Load()
	encodeSegmentHeader(page, id, base)
	if err := w.dev.WritePages(m, w.slotBase(slot), 1, page); err != nil {
		return err
	}
	w.nextSegID++
	w.lastSlot = slot
	s := &segment{id: id, slot: slot, baseLSN: base, lastLSN: base, writePos: 1}
	w.segs = append(w.segs, s)
	w.cur = s
	return nil
}

// sealLocked writes the seal block of the tailing segment and detaches it;
// the next flush opens a fresh segment.
func (w *Manager) sealLocked(m *simtime.Meter) error {
	s := w.cur
	if s == nil || s.sealed {
		w.cur = nil
		return nil
	}
	if cap(w.padBuf) < w.pageSize {
		w.padBuf = make([]byte, w.pageSize)
	}
	page := w.padBuf[:w.pageSize]
	clear(page)
	binary.LittleEndian.PutUint32(page[0:], sealMagic)
	binary.LittleEndian.PutUint32(page[4:], 0)
	binary.LittleEndian.PutUint32(page[8:], crc32.ChecksumIEEE(nil))
	binary.LittleEndian.PutUint64(page[12:], s.id)
	if err := w.dev.WritePages(m, w.slotBase(s.slot)+storage.PID(s.writePos), 1, page); err != nil {
		return err
	}
	s.writePos++
	s.sealed = true
	w.cur = nil
	if w.OnSeal != nil {
		w.OnSeal(s.info())
	}
	return nil
}

// SealSegment seals the tailing segment so replication can ship it as a
// complete unit; the next append opens a fresh segment. Returns the sealed
// segment's id, or 0 when there was no tailing segment.
func (w *Manager) SealSegment(m *simtime.Meter) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.cur
	if s == nil {
		return 0, nil
	}
	if err := w.sealLocked(m); err != nil {
		return 0, err
	}
	return s.id, nil
}

// Checkpoint forces a checkpoint: dirty state is flushed through
// OnCheckpoint and every segment is truncated.
func (w *Manager) Checkpoint(m *simtime.Meter) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.checkpointLocked(m)
}

func (w *Manager) checkpointLocked(m *simtime.Meter) error {
	// Seal the tailing segment first: until the new checkpoint image is
	// durable, a recovery falling back to the previous image must be able
	// to replay this segment in full, and only a sealed segment is trusted
	// end-to-end by the scan.
	if w.cur != nil {
		if err := w.sealLocked(m); err != nil {
			return err
		}
	}
	ckptLSN := w.lastLSN.Load()
	if w.OnCheckpoint != nil {
		if err := w.OnCheckpoint(m, ckptLSN); err != nil {
			return fmt.Errorf("wal: checkpoint callback: %w", err)
		}
	}
	if err := w.dev.Sync(m); err != nil {
		return err
	}
	if w.OnCheckpointDurable != nil {
		if err := w.OnCheckpointDurable(m); err != nil {
			return fmt.Errorf("wal: checkpoint durable callback: %w", err)
		}
	}
	// The image is durable; every live segment is at or below ckptLSN, so
	// the whole ring truncates. Headers are erased so a stale torn tail
	// can never mask post-checkpoint segments from a future recovery scan;
	// the erases need no sync — any sync that makes a later segment's
	// records durable covers them too.
	if err := w.eraseSegmentsLocked(m, w.segs); err != nil {
		return err
	}
	w.segs = nil
	w.cur = nil
	w.truncLSN = ckptLSN
	if ckptLSN > w.flushedLSN.Load() {
		w.flushedLSN.Store(ckptLSN)
	}
	if ckptLSN > w.syncedLSN.Load() {
		w.syncedLSN.Store(ckptLSN)
	}
	w.sinceCkpt = 0
	w.checkpoints.Add(1)
	return nil
}

// eraseSegmentsLocked zeroes the header pages of dropped segments.
func (w *Manager) eraseSegmentsLocked(m *simtime.Meter, segs []*segment) error {
	if len(segs) == 0 {
		return nil
	}
	if cap(w.padBuf) < w.pageSize {
		w.padBuf = make([]byte, w.pageSize)
	}
	page := w.padBuf[:w.pageSize]
	clear(page)
	for _, s := range segs {
		if err := w.dev.WritePages(m, w.slotBase(s.slot), 1, page); err != nil {
			return err
		}
	}
	return nil
}

// TruncateBelow removes sealed segments whose every record has LSN below
// lsn — the checkpoint-driven truncation rule, exposed for replication and
// tests. The tailing segment is never removed.
func (w *Manager) TruncateBelow(m *simtime.Meter, lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var keep []*segment
	var drop []*segment
	for _, s := range w.segs {
		if s.sealed && s.lastLSN < lsn && s != w.cur {
			drop = append(drop, s)
			if s.lastLSN > w.truncLSN {
				w.truncLSN = s.lastLSN
			}
		} else {
			keep = append(keep, s)
		}
	}
	if len(drop) == 0 {
		return nil
	}
	if err := w.eraseSegmentsLocked(m, drop); err != nil {
		return err
	}
	w.segs = keep
	return nil
}

// groupSync makes the log durable (group commit, §V-A). A committer is
// covered only by a sync that started after its flush; one waiter becomes
// the leader of the next sync and everyone who queued up during the current
// sync shares it.
func (w *Manager) groupSync(m *simtime.Meter) error {
	w.gcMu.Lock()
	arrival := w.gcEpoch
	for {
		if w.gcCompleted > arrival {
			w.gcMu.Unlock()
			return nil // a sync that started after our flush has completed
		}
		if !w.gcSyncing {
			w.gcSyncing = true
			w.gcEpoch++
			mine := w.gcEpoch
			// Everything flushed before the sync starts is durable once it
			// completes; snapshot the frontier for the replication horizon.
			frontier := w.flushedLSN.Load()
			w.gcMu.Unlock()

			err := w.dev.Sync(m)

			w.gcMu.Lock()
			w.gcSyncing = false
			if mine > w.gcCompleted {
				w.gcCompleted = mine
			}
			if err == nil {
				for {
					old := w.syncedLSN.Load()
					if frontier <= old || w.syncedLSN.CompareAndSwap(old, frontier) {
						break
					}
				}
			}
			w.gcCond.Broadcast()
			w.gcMu.Unlock()
			return err
		}
		w.gcCond.Wait()
	}
}

// CrashReset simulates a process crash for recovery tests: the device
// contents survive, everything in memory is gone. The method exists to make
// crash points explicit in tests.
func (w *Manager) CrashReset() {}
