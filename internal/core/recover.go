package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"blobdb/internal/blob"
	"blobdb/internal/btree"
	"blobdb/internal/buffer"
	"blobdb/internal/extent"
	"blobdb/internal/sha256x"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
	"blobdb/internal/wal"
)

// checkpoint image format (page-aligned in the checkpoint region):
//
//	magic u64 | totalLen u64 | crc32 u32 | confirmed u8 | pad to 24 | body
//	body: hwm u64 | ckptLSN u64 | txnFloor u64 (v5) | relCount u32 |
//	      per relation: nameLen u16 name entryCount u64
//	                    entries: klen u32 k vlen u32 v
//	                    inflightCount u32 (v4)
//	                    inflight: klen u32 k txn u64 flags u8 [vlen u32 v]
//	      ledger section: seq u64 | n u32 | n x (pid u64, count u64)
//
// ckptLSN is the highest WAL LSN assigned before the image was taken:
// recovery replays only records above it, and the segmented WAL truncates
// every segment at or below it once the image is durable. The ledger
// section (v3) carries the refcount ledger and its mutation-sequence
// fence; it is serialized AFTER the relation trees so that an increment
// whose tuple made the image is always in the image too (increments
// happen-before their tree put).
//
// The in-flight section (v4) lists the keys whose tree value a transaction
// staged that had not landed at capture: its id, whether its commit record
// was in a written log block (flag bit 0), and the key's last landed value
// (flag bit 1; absent without it). The staged value is the entry's in the
// trees, or absence. Every other tuple had landed, so once the image is
// durable recovery trusts it — and the confirmed byte, written after the
// checkpoint's sync, says the image is durable (DESIGN.md §5, "Recovery
// validation"). The crc does not cover the header, so setting the byte
// rewrites page 0 with identical bytes but one.
//
// txnFloor (v5) is the highest transaction id issued before the capture.
// Recovery matches records to commit records by transaction id and reads
// commit records at any LSN, including ones an earlier process lifetime
// left in the log, so ids must never repeat: a recovered engine issues ids
// above the floor and above every id its log scan read. Without the floor
// (v3, v4) only the scan bounds them.
const (
	ckptMagicPrefix = 0x424c4f42_434b5000 // "BLOBCKP" + a version byte
	ckptMagicV3     = ckptMagicPrefix | '3'
	ckptMagicV4     = ckptMagicPrefix | '4' // in-flight section, confirmation
	ckptMagic       = ckptMagicPrefix | '5' // "BLOBCKP5" (v5: transaction-id floor)
)

const (
	ckptHeaderLen = 24
	ckptConfirmed = 20 // header offset of the confirmation byte
)

// The checkpoint region holds two slots written alternately. A checkpoint
// image is the only redo base for everything the truncated WAL no longer
// covers, so it must never be overwritten in place: a crash mid-write
// would tear the image AND leave the WAL truncated past it, losing every
// committed blob. (Found by crashsim; see the pinned regression schedule
// in internal/crashsim.) Recovery reads both slots and trusts the valid
// image with the higher checkpoint LSN.
const ckptSlots = 2

// ckptSlotGeom returns the device range of one checkpoint slot.
func (db *DB) ckptSlotGeom(slot int) (start storage.PID, pages uint64) {
	per := db.ckptPages / ckptSlots
	return db.ckptStart + storage.PID(uint64(slot)*per), per
}

func newContentHasher() *sha256x.Fast { return sha256x.BestHasher() }

// writeCheckpoint serializes all relations, their in-flight keys and the
// allocator high-water mark to the next checkpoint slot. Installed as the
// WAL's OnCheckpoint hook, so it runs with the WAL manager's lock held —
// which also serializes access to db.ckptNext.
func (db *DB) writeCheckpoint(m *simtime.Meter, ckptLSN uint64) error {
	// The pipelined committer may still be writing back the previous
	// batch's extents; the image does not wait for them. Their keys are
	// in the in-flight section, which is what makes the capture safe.
	body := make([]byte, 0, 1<<16)
	body = binary.LittleEndian.AppendUint64(body, uint64(db.alloc.HWM()))
	body = binary.LittleEndian.AppendUint64(body, ckptLSN)
	// Read after ckptLSN was fixed: a transaction with a record at or
	// below it began before, so its id is at or below the floor.
	body = binary.LittleEndian.AppendUint64(body, db.nextTxn.Load())

	db.mu.RLock()
	names := make([]string, 0, len(db.rels))
	for n := range db.rels {
		names = append(names, n)
	}
	// Sorted order keeps checkpoint images byte-identical across runs —
	// the crash simulator replays schedules against recorded device-op
	// hashes, so map iteration order must not leak into the image.
	sort.Strings(names)
	rels := make([]*Relation, 0, len(names))
	for _, n := range names {
		rels = append(rels, db.rels[n])
	}
	db.mu.RUnlock()

	body = binary.LittleEndian.AppendUint32(body, uint32(len(rels)))
	// No flight marks a transaction landed during the capture: a key
	// outside the in-flight section of one relation has landed in all.
	db.landMu.Lock()
	for i, r := range rels {
		body = binary.LittleEndian.AppendUint16(body, uint16(len(names[i])))
		body = append(body, names[i]...)

		r.mu.RLock()
		body = binary.LittleEndian.AppendUint64(body, uint64(r.tree.Len()))
		r.tree.Ascend(nil, func(k, v []byte) bool {
			body = binary.LittleEndian.AppendUint32(body, uint32(len(k)))
			body = append(body, k...)
			body = binary.LittleEndian.AppendUint32(body, uint32(len(v)))
			body = append(body, v...)
			return true
		})
		body = r.appendInflight(body)
		r.mu.RUnlock()
	}
	db.landMu.Unlock()

	// Ledger section LAST, snapshotted strictly after the trees: an
	// increment happens-before its tuple's tree put, so a tuple captured
	// above already has its increments captured here — reconciliation can
	// then treat a replayed count below the tuple recount as an error.
	body = append(body, db.dedup.snapshotLedger()...)

	slot := db.ckptNext
	slotStart, slotPages := db.ckptSlotGeom(slot)
	total := ckptHeaderLen + len(body)
	pageSize := db.dev.PageSize()
	pages := (total + pageSize - 1) / pageSize
	if uint64(pages) > slotPages {
		return fmt.Errorf("core: checkpoint of %d pages exceeds slot of %d", pages, slotPages)
	}
	buf := make([]byte, pages*pageSize)
	binary.LittleEndian.PutUint64(buf[0:], ckptMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(body)))
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(body))
	copy(buf[ckptHeaderLen:], body)
	//blobvet:allow checkpoint images live outside the pool by design: dual-slot writes fenced by magic+CRC, not extent write-back
	if err := db.dev.WritePages(m, slotStart, pages, buf); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	db.ckptHead, db.ckptHeadPID = buf[:pageSize], slotStart
	db.ckptNext = (slot + 1) % ckptSlots
	return nil
}

// confirmCheckpoint sets the confirmation byte of the image the running
// checkpoint wrote. Installed as the WAL's OnCheckpointDurable hook: the
// checkpoint's sync has returned, so the image and every extent write
// that landed before its capture are durable.
func (db *DB) confirmCheckpoint(m *simtime.Meter) error {
	head := db.ckptHead
	if head == nil {
		return nil
	}
	db.ckptHead = nil
	head[ckptConfirmed] = 1
	//blobvet:allow the confirmation byte lives in the checkpoint image header, outside the pool like the image itself
	if err := db.dev.WritePages(m, db.ckptHeadPID, 1, head); err != nil {
		return fmt.Errorf("core: confirm checkpoint: %w", err)
	}
	return nil
}

// ckptImage is a parsed checkpoint image.
type ckptImage struct {
	rels      map[string]*btree.Tree
	inflight  map[string][]inflightKey // per relation, key order
	hwm       storage.PID
	ckptLSN   uint64
	txnFloor  uint64 // highest transaction id issued before capture (v5; 0 before)
	ledgerSeq uint64
	ledger    map[storage.PID]uint64
	// trusted: a confirmed v4 or v5 image, whose tuples outside the
	// in-flight section landed before a completed sync.
	trusted bool
}

// readCheckpoint loads the newest valid checkpoint image from the two
// slots, or ok=false when neither slot holds a valid checkpoint. It also
// points db.ckptNext at the losing slot so the surviving image is never
// overwritten by the next checkpoint.
func (db *DB) readCheckpoint(m *simtime.Meter) (img *ckptImage, ok bool, err error) {
	best := -1
	for slot := 0; slot < ckptSlots; slot++ {
		si, sok, serr := db.readCheckpointSlot(m, slot)
		if serr != nil {
			return nil, false, serr
		}
		// Checkpoint LSNs only grow, so the higher one is the newer image.
		if sok && (!ok || si.ckptLSN > img.ckptLSN) {
			img, ok = si, true
			best = slot
		}
	}
	if ok {
		db.ckptNext = (best + 1) % ckptSlots
	}
	return img, ok, nil
}

// readCheckpointSlot parses one checkpoint slot. ok=false (with nil err)
// means the slot is empty or torn — both are normal after a crash. A slot
// that holds a checkpoint of a version this engine does not read fails
// with ErrCheckpointVersion instead: reading it as empty would silently
// drop the redo base.
func (db *DB) readCheckpointSlot(m *simtime.Meter, slot int) (img *ckptImage, ok bool, err error) {
	slotStart, slotPages := db.ckptSlotGeom(slot)
	pageSize := db.dev.PageSize()
	head := make([]byte, pageSize)
	if err := db.dev.ReadPages(m, slotStart, 1, head); err != nil {
		return nil, false, err
	}
	magic := binary.LittleEndian.Uint64(head[0:])
	switch magic {
	case ckptMagic, ckptMagicV4, ckptMagicV3:
	default:
		if magic&^0xff != ckptMagicPrefix {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("core: checkpoint slot %d holds version %q: %w", slot, byte(magic), ErrCheckpointVersion)
	}
	v4 := magic != ckptMagicV3 // v4 or later: in-flight section, confirmation
	bodyLen := int(binary.LittleEndian.Uint64(head[8:]))
	wantCRC := binary.LittleEndian.Uint32(head[16:])
	total := ckptHeaderLen + bodyLen
	pages := (total + pageSize - 1) / pageSize
	if bodyLen < 0 || uint64(pages) > slotPages {
		// A torn header can declare any length; treat it like a torn image
		// rather than failing recovery.
		return nil, false, nil
	}
	buf := make([]byte, pages*pageSize)
	if err := db.dev.ReadPages(m, slotStart, pages, buf); err != nil {
		return nil, false, err
	}
	body := buf[ckptHeaderLen : ckptHeaderLen+bodyLen]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, false, nil // torn checkpoint: ignore
	}

	rd := func(n int) ([]byte, error) {
		if n < 0 || len(body) < n {
			return nil, fmt.Errorf("core: checkpoint body truncated")
		}
		out := body[:n]
		body = body[n:]
		return out, nil
	}
	u32 := func() (int, error) {
		b, err := rd(4)
		if err != nil {
			return 0, err
		}
		return int(binary.LittleEndian.Uint32(b)), nil
	}
	u64 := func() (uint64, error) {
		b, err := rd(8)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b), nil
	}
	img = &ckptImage{
		rels:     map[string]*btree.Tree{},
		inflight: map[string][]inflightKey{},
		trusted:  v4 && head[ckptConfirmed] == 1,
	}
	hwm, err := u64()
	if err != nil {
		return nil, false, err
	}
	img.hwm = storage.PID(hwm)
	if img.ckptLSN, err = u64(); err != nil {
		return nil, false, err
	}
	if magic == ckptMagic {
		if img.txnFloor, err = u64(); err != nil {
			return nil, false, err
		}
	}
	relCount, err := u32()
	if err != nil {
		return nil, false, err
	}
	for i := 0; i < relCount; i++ {
		b, err := rd(2)
		if err != nil {
			return nil, false, err
		}
		if b, err = rd(int(binary.LittleEndian.Uint16(b))); err != nil {
			return nil, false, err
		}
		name := string(b)
		count, err := u64()
		if err != nil {
			return nil, false, err
		}
		tree := btree.New(nil)
		for j := uint64(0); j < count; j++ {
			klen, err := u32()
			if err != nil {
				return nil, false, err
			}
			k, err := rd(klen)
			if err != nil {
				return nil, false, err
			}
			vlen, err := u32()
			if err != nil {
				return nil, false, err
			}
			v, err := rd(vlen)
			if err != nil {
				return nil, false, err
			}
			tree.Put(k, v)
		}
		img.rels[name] = tree
		if !v4 {
			continue
		}
		n, err := u32()
		if err != nil {
			return nil, false, err
		}
		for j := 0; j < n; j++ {
			var e inflightKey
			klen, err := u32()
			if err != nil {
				return nil, false, err
			}
			if e.key, err = rd(klen); err != nil {
				return nil, false, err
			}
			if e.txn, err = u64(); err != nil {
				return nil, false, err
			}
			flags, err := rd(1)
			if err != nil {
				return nil, false, err
			}
			e.written = flags[0]&inflightWritten != 0
			if flags[0]&inflightHasLanded != 0 {
				vlen, err := u32()
				if err != nil {
					return nil, false, err
				}
				if e.landed, err = rd(vlen); err != nil {
					return nil, false, err
				}
			}
			img.inflight[name] = append(img.inflight[name], e)
		}
	}
	img.ledgerSeq, img.ledger, body, err = unmarshalLedger(body)
	if err != nil {
		return nil, false, err
	}
	if len(body) != 0 {
		return nil, false, fmt.Errorf("core: checkpoint body has %d trailing bytes", len(body))
	}
	return img, true, nil
}

// RecoveryReport summarizes what Recover did.
type RecoveryReport struct {
	CommittedTxns    int    // transactions with a durable commit record above the checkpoint LSN
	RedoneRecords    int    // logical records reapplied
	ValidatedBlobs   int    // non-landed last-writer Blob States whose content passed SHA-256 validation
	HashedBlobs      int    // distinct Blob States hashed, both passes together
	HashedBytes      uint64 // content bytes of the HashedBlobs states
	TrustedBlobs     int    // surviving tuples whose Blob State was proven landed and not hashed
	FailedBlobs      int    // §III-C: states durable but content invalid — txn failed
	DroppedTuples    int    // tuples removed because their blob failed validation
	RevertedKeys     int    // image in-flight keys reverted to their landed value
	LiveExtents      int    // distinct extents owned by surviving blobs
	SharedExtents    int    // extents referenced by more than one surviving tuple
	LedgerReconciled int    // replayed ledger entries clamped to the tuple recount
	LandedLSN        uint64 // the extents-landed watermark: commits at or below it were trusted
	RecoveredHWM     storage.PID
	FromCheckpoint   bool
}

// recoverDB rebuilds the database state from the device after a crash: the
// checkpoint image is the redo base, committed WAL records above the
// checkpoint LSN are reapplied, and — the paper's Analysis-phase rule
// (§III-C) — every Blob State recovery cannot prove landed is validated
// against its SHA-256; transactions whose blob content did not make it to
// the device before the crash are treated as failed and undone. It backs
// RecoverDevice. The rule is DESIGN.md §5, "Recovery validation".
//
// The LSN filter is sound because a record's tree effect is applied (and
// therefore captured by any later checkpoint image) strictly before its
// LSN is assigned: a record at or below the checkpoint LSN is always
// covered by the image. Commit and watermark records are read at any LSN:
// a transaction in the image's in-flight section may have committed in a
// segment the image's own LSN covers.
func recoverDB(o options, m *simtime.Meter) (*DB, *RecoveryReport, error) {
	db, err := open(o)
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{}

	img, ok, err := db.readCheckpoint(m)
	if err != nil {
		return nil, nil, err
	}
	rep.FromCheckpoint = ok
	var hwm storage.PID
	var ckptLSN, ledgerSeq uint64
	replayed := map[storage.PID]uint64{} // ledger as of image + eligible deltas
	// hashAll: no confirmed v4 image vouches for the image's tuples.
	hashAll := ok && !img.trusted
	if ok {
		hwm, ckptLSN, ledgerSeq = img.hwm, img.ckptLSN, img.ledgerSeq
		for name, tree := range img.rels {
			db.rels[name] = newRelation(name, tree)
		}
		for pid, c := range img.ledger {
			replayed[pid] = c
		}
	}

	// Analysis: scan the segmented log and find committed transactions and
	// the highest landed watermark. Records above the checkpoint LSN are
	// kept for redo. The scan also resumes the manager's LSN and
	// segment-id counters past everything on the device.
	commitAt := map[uint64]uint64{} // txn -> commit record LSN
	var records []wal.Record
	maxTxn := uint64(0)
	if ok {
		maxTxn = img.txnFloor
	}
	_, err = db.wal.Recover(m, 0, func(r wal.Record) bool {
		maxTxn = max(maxTxn, r.TxnID)
		switch r.Type {
		case wal.RecCommit:
			commitAt[r.TxnID] = r.LSN
			if r.LSN > ckptLSN {
				rep.CommittedTxns++
			}
		case wal.RecLanded:
			if len(r.Payload) == 8 {
				rep.LandedLSN = max(rep.LandedLSN, binary.LittleEndian.Uint64(r.Payload))
			}
		}
		if r.LSN > ckptLSN {
			records = append(records, r)
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	db.wal.AdvanceLSN(ckptLSN)
	written := map[uint64]bool{} // image in-flight txns whose commit record was written at capture
	if ok {
		for _, es := range img.inflight {
			for _, e := range es {
				written[e.txn] = written[e.txn] || e.written
				maxTxn = max(maxTxn, e.txn)
			}
		}
	}
	// New transactions take ids above every id on the device (see txnFloor).
	db.nextTxn.Store(maxTxn)
	committed := func(txn uint64) bool {
		_, ok := commitAt[txn]
		return ok || written[txn]
	}
	landed := func(txn uint64) bool {
		c, ok := commitAt[txn]
		return ok && c <= rep.LandedLSN
	}

	// Blob validation (the paper's Analysis-phase SHA-256 check, §III-C):
	// a committed transaction whose *surviving* Blob State does not
	// validate against the device content is treated as failed — the crash
	// hit between its WAL flush and its extent flush — and ALL of its
	// records are undone (skipped from redo), and every key it staged in
	// the image reverts to its landed value. Only the last writer per key
	// is validated: extents of superseded blob versions are legitimately
	// recycled by later transactions. A landed transaction's states are
	// trusted.
	type rk struct{ rel, key string }
	lastWriter := map[rk]int{} // record index of the final committed write per key
	named := map[rk]bool{}     // keys a non-landed transaction names: hashed by the sweep
	for i, rec := range records {
		switch rec.Type {
		case wal.RecHeapPut, wal.RecBlobState, wal.RecHeapDelete:
		default:
			continue
		}
		relName, key, _, err := parseHeapPayload(rec.Payload)
		if !committed(rec.TxnID) {
			if err == nil {
				named[rk{relName, string(key)}] = true
			}
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: analyze LSN %d: %w", rec.LSN, err)
		}
		k := rk{relName, string(key)}
		lastWriter[k] = i
		if !landed(rec.TxnID) {
			named[k] = true
		}
	}
	type candidate struct {
		txn   uint64
		st    *blob.State // nil: the encoded state does not decode
		check int         // index into checks
	}
	checks := &stateChecks{index: map[string]int{}}
	var cands []candidate
	candidateOf := func(txn uint64, value []byte) {
		if len(value) == 0 || value[0] != tagBlob {
			return
		}
		c := candidate{txn: txn}
		if st, err := blob.Decode(value[1:]); err == nil {
			c.st, c.check = st, checks.add(value[1:], st)
		}
		cands = append(cands, c)
	}
	// Candidates are taken in a fixed order — image in-flight entries in
	// relation and key order, then WAL last writers in record order — and
	// their verdicts are applied in that order, so the report and the pool
	// drops do not depend on map iteration or on the validation workers'
	// schedule.
	var inflightRels []string
	if ok {
		for name := range img.inflight {
			inflightRels = append(inflightRels, name)
		}
		sort.Strings(inflightRels)
	}
	for _, name := range inflightRels {
		tree := img.rels[name]
		for _, e := range img.inflight[name] {
			k := rk{name, string(e.key)}
			if landed(e.txn) {
				continue
			}
			named[k] = true
			if _, later := lastWriter[k]; later || !committed(e.txn) {
				continue
			}
			if v, ok := tree.Get(e.key); ok {
				candidateOf(e.txn, v)
			}
		}
	}
	idxs := make([]int, 0, len(lastWriter))
	for _, idx := range lastWriter {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		rec := records[idx]
		if rec.Type != wal.RecBlobState || landed(rec.TxnID) {
			continue
		}
		_, _, value, err := parseHeapPayload(rec.Payload)
		if err != nil {
			continue
		}
		candidateOf(rec.TxnID, value)
	}
	db.runStateChecks(m, checks, rep)
	failed := map[uint64]bool{}
	for _, c := range cands {
		if c.st != nil && checks.ok(c.check) {
			rep.ValidatedBlobs++
			continue
		}
		failed[c.txn] = true
		rep.FailedBlobs++
		// Validation read the (garbage) extents into the pool; their
		// page ranges are about to become free space, so evict them or
		// a future allocation of the same pages will collide with the
		// stale resident entries.
		if c.st != nil {
			db.dropStateFromPool(c.st)
		}
	}

	// Undo the image's in-flight keys whose transaction did not commit or
	// failed: each reverts to its last landed value.
	for _, name := range inflightRels {
		tree := img.rels[name]
		for _, e := range img.inflight[name] {
			if committed(e.txn) && !failed[e.txn] {
				continue
			}
			if e.landed == nil {
				tree.Delete(e.key)
			} else {
				tree.Put(e.key, e.landed)
			}
			rep.RevertedKeys++
		}
	}

	// Redo: reapply logical records of committed, non-failed transactions
	// in log order. A relation's creation record (RecBegin) and any tuple
	// record create it if neither the image nor an earlier record did.
	relation := func(name string) *Relation {
		r, ok := db.rels[name]
		if !ok {
			r = newRelation(name, btree.New(nil))
			db.rels[name] = r
		}
		return r
	}
	for _, rec := range records {
		if !committed(rec.TxnID) || failed[rec.TxnID] {
			continue
		}
		switch rec.Type {
		case wal.RecBegin:
			relation(string(rec.Payload))
		case wal.RecHeapPut, wal.RecBlobState, wal.RecHeapDelete:
			relName, key, value, err := parseHeapPayload(rec.Payload)
			if err != nil {
				return nil, nil, fmt.Errorf("core: redo LSN %d: %w", rec.LSN, err)
			}
			r := relation(relName)
			if rec.Type == wal.RecHeapDelete || len(value) == 0 {
				r.tree.Delete(key)
			} else {
				r.tree.Put(key, value)
			}
			rep.RedoneRecords++
		}
	}

	// Ledger replay: RecRefDelta batches of committed, non-failed
	// transactions, with seq above the image fence, in seq order. seq is
	// assigned under the ledger mutex, so it is the true mutation order
	// even where WAL append order raced. Apply-time decrements carry the
	// id of the transaction that staged the free, and the committed &&
	// !failed filter applies to them exactly as to increments: a failed
	// owner's tuple reverts to the old state that still references the
	// shared extent, so replaying its decrement would under-count the
	// surviving reference and arm a double-free.
	type refBatch struct {
		seq     uint64
		entries []refDelta
	}
	var batches []refBatch
	maxSeq := ledgerSeq
	for _, rec := range records {
		if rec.Type != wal.RecRefDelta {
			continue
		}
		if !committed(rec.TxnID) || failed[rec.TxnID] {
			continue
		}
		seq, entries, derr := decodeRefDelta(rec.Payload)
		if derr != nil {
			return nil, nil, fmt.Errorf("core: ledger replay LSN %d: %w", rec.LSN, derr)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq <= ledgerSeq {
			continue // covered by the checkpoint image
		}
		batches = append(batches, refBatch{seq: seq, entries: entries})
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i].seq < batches[j].seq })
	for _, b := range batches {
		for _, e := range b.entries {
			v := replayed[e.PID]
			if v == 0 {
				v = 1 // sparse ledger: absent means one reference
			}
			if e.Delta > 0 {
				v++
			} else if v > 0 {
				v--
			}
			if v >= 2 {
				replayed[e.PID] = v
			} else {
				delete(replayed, e.PID)
			}
		}
	}

	// Sweep: the surviving Blob State of every key a non-landed
	// transaction names — and, without a confirmed v4 image, of every
	// tuple — must hash-validate; stragglers are dropped tuple-wise as a
	// last resort. Every other surviving state is trusted. A state the
	// Analysis pass already hashed keeps its verdict — the device is not
	// written until the closing checkpoint, so hashing it again could only
	// repeat it — and so do identical states of dedup-sharing tuples. With
	// dedup, several tuples may reference the same extent, so the
	// allocator rebuild counts each DISTINCT extent once, and the pass
	// doubles as the authoritative recount of per-extent references.
	relNames := make([]string, 0, len(db.rels))
	for name := range db.rels {
		relNames = append(relNames, name)
	}
	sort.Strings(relNames)
	type tuple struct {
		rel   *Relation
		key   []byte
		st    *blob.State // nil: the stored state does not decode
		check int         // index into checks; -1: trusted
	}
	var tuples []tuple
	for _, name := range relNames {
		r := db.rels[name]
		r.tree.Ascend(nil, func(k, v []byte) bool {
			tag, payload, err := decodeValue(v)
			if err != nil || tag != tagBlob {
				return true
			}
			t := tuple{rel: r, key: k, check: -1}
			if st, err := blob.Decode(payload); err == nil {
				t.st = st
				if hashAll || named[rk{name, string(k)}] {
					t.check = checks.add(payload, st)
				} else {
					rep.TrustedBlobs++
				}
			}
			tuples = append(tuples, t)
			return true
		})
	}
	db.runStateChecks(m, checks, rep)

	var live []extent.Extent
	seen := map[storage.PID]bool{}
	refs := map[storage.PID]uint64{}
	maxEnd := hwm
	tiers := db.alloc.Tiers()
	heapStart := storage.PID(db.opts.LogPages + db.opts.CkptPages)
	if maxEnd < heapStart {
		maxEnd = heapStart
	}
	add := func(pid storage.PID, pages uint64) {
		refs[pid]++
		if !seen[pid] {
			seen[pid] = true
			live = append(live, extent.Extent{PID: pid, Pages: pages})
		}
		if end := pid + storage.PID(pages); end > maxEnd {
			maxEnd = end
		}
	}
	var drops []tuple
	for _, t := range tuples {
		if t.st == nil || (t.check >= 0 && !checks.ok(t.check)) {
			t.key = append([]byte(nil), t.key...)
			drops = append(drops, t)
			continue
		}
		for i, pid := range t.st.Extents {
			add(pid, tiers.Size(i))
		}
		if t.st.HasTail() {
			add(t.st.Tail.PID, t.st.Tail.Pages)
		}
	}
	for _, d := range drops {
		d.rel.tree.Delete(d.key)
		rep.DroppedTuples++
		if d.st != nil {
			db.dropStateFromPool(d.st)
		}
	}
	rep.LiveExtents = len(live)
	rep.RecoveredHWM = maxEnd
	if err := db.alloc.Rebuild(maxEnd, live); err != nil {
		return nil, nil, fmt.Errorf("core: rebuild allocator: %w", err)
	}

	// Reconcile the replayed ledger against the recount. The recount is
	// authoritative: a replayed count ABOVE it belongs to a transaction
	// that was in flight at the crash (its share or release never became
	// visible in the trees) and is clamped; a replayed count BELOW it
	// means a logged increment was lost — a double-free waiting to happen
	// — and recovery fails rather than continue on a corrupt ledger.
	ledger := map[storage.PID]uint64{}
	for pid, want := range refs {
		if want < 2 {
			continue
		}
		got := replayed[pid]
		if got == 0 {
			got = 1
		}
		if got < want {
			return nil, nil, fmt.Errorf("core: recover: extent %d referenced by %d tuples but ledger replayed only %d — refcount increment lost", pid, want, got)
		}
		if got != want {
			rep.LedgerReconciled++
		}
		ledger[pid] = want
	}
	for pid := range replayed {
		if refs[pid] < 2 {
			rep.LedgerReconciled++ // in-flight share/release at crash; entry dropped
		}
	}
	rep.SharedExtents = len(ledger)
	db.dedup.mu.Lock()
	db.dedup.ledger = ledger
	db.dedup.seq = maxSeq
	db.dedup.mu.Unlock()

	// Rebuild the content index from the surviving tuples in deterministic
	// (relation-name, key) order so post-recovery dedup decisions replay
	// identically in the crash simulator.
	for _, name := range relNames {
		db.rels[name].tree.Ascend(nil, func(_, v []byte) bool {
			tag, payload, err := decodeValue(v)
			if err != nil || tag != tagBlob {
				return true
			}
			if st, err := blob.Decode(payload); err == nil && shareable(st) {
				db.dedup.index[stateKey(st)] = st
			}
			return true
		})
	}

	// Finish with a checkpoint: the recovered state becomes the new redo
	// base and every replayed segment is truncated and erased.
	if err := db.wal.Checkpoint(m); err != nil {
		return nil, nil, fmt.Errorf("core: post-recovery checkpoint: %w", err)
	}
	return db, rep, nil
}

// dropStateFromPool evicts a dead blob's extents from the buffer pool so
// their page ranges can be reallocated without colliding with stale
// resident entries.
func (db *DB) dropStateFromPool(st *blob.State) {
	for _, pid := range st.Extents {
		db.pool.Drop(pid)
	}
	if st.HasTail() {
		db.pool.Drop(st.Tail.PID)
	}
}

// stateChecks collects the Blob States to hash-validate, one entry per
// distinct encoding: two tuples, or a WAL record and a tuple, holding
// byte-identical states share one check and one verdict.
type stateChecks struct {
	index  map[string]int // encoded state -> check
	states []*blob.State
	errs   []error // verdicts of states[:len(errs)]
}

// add returns the check for the state encoded as enc, queueing st for
// validation when no identical state has been seen.
func (c *stateChecks) add(enc []byte, st *blob.State) int {
	if i, ok := c.index[string(enc)]; ok {
		return i
	}
	i := len(c.states)
	c.index[string(enc)] = i
	c.states = append(c.states, st)
	return i
}

// ok reports whether check i validated.
func (c *stateChecks) ok(i int) bool { return c.errs[i] == nil }

// runStateChecks hash-validates every queued state on up to GOMAXPROCS
// workers over the shared pool, counting them in rep. A verdict does not
// depend on the workers' schedule: nothing writes the states' extents
// while they run. The one schedule effect, a fix that finds the pool
// pinned full by the other workers, is retried alone afterwards.
func (db *DB) runStateChecks(m *simtime.Meter, c *stateChecks, rep *RecoveryReport) {
	queued := c.states[len(c.errs):]
	if len(queued) == 0 {
		return
	}
	errs := make([]error, len(queued))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(queued)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queued) {
					return
				}
				errs[i] = db.validateBlob(m, queued[i])
			}
		}()
	}
	wg.Wait()
	for i, st := range queued {
		if errors.Is(errs[i], buffer.ErrPoolFull) {
			errs[i] = db.validateBlob(m, st)
		}
		c.errs = append(c.errs, errs[i])
		rep.HashedBlobs++
		rep.HashedBytes += st.Size
	}
}

// validateBlob reads the blob's extents from the device and checks the
// content against the Blob State's SHA-256.
func (db *DB) validateBlob(m *simtime.Meter, st *blob.State) error {
	h := newContentHasher()
	err := db.blobs.Stream(m, st, func(chunk []byte) bool {
		h.Write(chunk)
		return true
	})
	if err != nil {
		return err
	}
	if h.Sum256() != st.SHA256 {
		return ErrContentMismatch
	}
	return nil
}

// VerifyContent hashes every surviving Blob State (each distinct state
// once, on GOMAXPROCS workers) and reports the first key, in relation and
// key order, whose content does not validate: ErrContentMismatch, or the
// read error. Startup recovery trusts the states it can prove landed, so
// this is the full-content check — out-of-band bit rot included — that
// `blobctl fsck` runs and the crash simulator runs after every recovered
// schedule. It reads through the buffer pool inside one read-only
// transaction, so extents freed by concurrent commits are not recycled
// under it.
func (db *DB) VerifyContent() error {
	tx := db.Begin(nil)
	defer tx.Commit()
	type tuple struct {
		rel, key string
		check    int
	}
	var tuples []tuple
	checks := &stateChecks{index: map[string]int{}}
	names := db.Relations()
	sort.Strings(names)
	for _, name := range names {
		if err := tx.Scan(name, nil, func(k, _ []byte, st *blob.State) bool {
			if st != nil {
				tuples = append(tuples, tuple{name, string(k), checks.add(st.Encode(), st)})
			}
			return true
		}); err != nil {
			return err
		}
	}
	db.runStateChecks(nil, checks, &RecoveryReport{})
	for _, t := range tuples {
		if err := checks.errs[t.check]; err != nil {
			return fmt.Errorf("core: %q/%q: %w", t.rel, t.key, err)
		}
	}
	return nil
}
