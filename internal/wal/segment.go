package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync/atomic"

	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// This file is the read side of the segmented log: the stateless recovery
// scan, the per-segment reader replication ships from, and the live pull
// path a primary serves to replicas.

// scanSegment walks the flush blocks of the segment in slot, collecting
// records. sealed reports whether the segment ended with a seal block; a
// segment that did not is torn (or still tailing) and nothing after its
// last valid block can be trusted. Record payloads are copied.
func (w *Manager) scanSegment(m *simtime.Meter, slot int, wantID uint64) (recs []Record, sealed bool, err error) {
	hdr := make([]byte, w.pageSize)
	page := 1
	for page < w.segPages {
		if err := w.dev.ReadPages(m, w.slotBase(slot)+storage.PID(page), 1, hdr); err != nil {
			return nil, false, err
		}
		magic := binary.LittleEndian.Uint32(hdr[0:])
		blockID := binary.LittleEndian.Uint64(hdr[12:])
		if magic == sealMagic && blockID == wantID {
			return recs, true, nil
		}
		if magic != flushMagic || blockID != wantID {
			return recs, false, nil // torn tail or stale residue: end of segment
		}
		plen := int(binary.LittleEndian.Uint32(hdr[4:]))
		wantCRC := binary.LittleEndian.Uint32(hdr[8:])
		blockPages := (flushHeaderLen + plen + w.pageSize - 1) / w.pageSize
		if plen < 0 || page+blockPages > w.segPages {
			return recs, false, nil // declared length runs past the slot: torn
		}
		raw := make([]byte, blockPages*w.pageSize)
		if err := w.dev.ReadPages(m, w.slotBase(slot)+storage.PID(page), blockPages, raw); err != nil {
			return nil, false, err
		}
		payload := raw[flushHeaderLen : flushHeaderLen+plen]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return recs, false, nil // torn flush
		}
		off := 0
		for off+recHeaderSize <= len(payload) {
			lsn := binary.LittleEndian.Uint64(payload[off:])
			txn := binary.LittleEndian.Uint64(payload[off+8:])
			typ := RecType(payload[off+16])
			rlen := int(binary.LittleEndian.Uint32(payload[off+17:]))
			rcrc := binary.LittleEndian.Uint32(payload[off+21:])
			if rlen < 0 || off+recHeaderSize+rlen > len(payload) {
				return nil, false, fmt.Errorf("wal: record at %d overruns its flush block", off)
			}
			body := payload[off+recHeaderSize : off+recHeaderSize+rlen]
			if crc32.ChecksumIEEE(body) != rcrc {
				return nil, false, fmt.Errorf("wal: record CRC mismatch inside a valid flush")
			}
			recs = append(recs, Record{LSN: lsn, TxnID: txn, Type: typ,
				Payload: append([]byte(nil), body...)})
			off += recHeaderSize + rlen
		}
		page += blockPages
	}
	return recs, false, nil
}

// readHeaders scans every slot's header page, returning the valid segments
// found on the device in ascending id order.
func (w *Manager) readHeaders(m *simtime.Meter) ([]*segment, error) {
	hdr := make([]byte, w.pageSize)
	var found []*segment
	for slot := 0; slot < w.segCount; slot++ {
		if err := w.dev.ReadPages(m, w.slotBase(slot), 1, hdr); err != nil {
			return nil, err
		}
		id, base, ok := decodeSegmentHeader(hdr)
		if !ok {
			continue
		}
		found = append(found, &segment{id: id, slot: slot, baseLSN: base, lastLSN: base, writePos: 1})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].id < found[j].id })
	return found, nil
}

// RecoverInfo summarizes what Manager.Recover found on the device.
type RecoverInfo struct {
	Segments []SegmentInfo // segments found, ascending id (including the torn tail)
	MaxLSN   uint64        // highest record LSN read
}

// Recover is the cold-start scan: it walks every segment found on the
// device in id order, invoking fn for each record with LSN above after
// (records at or below it are covered by the checkpoint image) until fn
// returns false. The scan stops — conservatively discarding everything
// later — at the first segment that is neither sealed nor the newest, and
// within the newest at the first torn block: records there were never
// covered by a completed sync, so no acknowledged commit is lost.
//
// Recover also adopts the on-device segments as the manager's live state
// (so the caller's post-recovery checkpoint truncates and erases them) and
// resumes the LSN and segment-id counters above everything seen.
func (w *Manager) Recover(m *simtime.Meter, after uint64, fn func(Record) bool) (RecoverInfo, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	found, err := w.readHeaders(m)
	if err != nil {
		return RecoverInfo{}, err
	}
	info := RecoverInfo{MaxLSN: after}
	stop := false
	for _, s := range found {
		if stop {
			break
		}
		recs, sealed, serr := w.scanSegment(m, s.slot, s.id)
		if serr != nil {
			return RecoverInfo{}, serr
		}
		s.sealed = sealed
		if !sealed {
			stop = true // torn or tailing: trust nothing beyond it
		}
		for _, r := range recs {
			if r.LSN > s.lastLSN {
				s.lastLSN = r.LSN
			}
			if r.LSN > info.MaxLSN {
				info.MaxLSN = r.LSN
			}
			if r.LSN <= after {
				continue
			}
			if !fn(r) {
				stop = true
				break
			}
		}
		info.Segments = append(info.Segments, s.info())
	}
	// Adopt the device state: counters resume above everything seen (even
	// segments past a torn one, whose ids must never be reused), and the
	// scanned segments stay live until the next checkpoint erases them.
	maxID := uint64(0)
	for _, s := range found {
		if s.id > maxID {
			maxID = s.id
		}
	}
	if maxID >= w.nextSegID {
		w.nextSegID = maxID + 1
	}
	if info.MaxLSN > w.lastLSN.Load() {
		w.lastLSN.Store(info.MaxLSN)
	}
	if info.MaxLSN > w.flushedLSN.Load() {
		w.flushedLSN.Store(info.MaxLSN)
	}
	if info.MaxLSN > w.syncedLSN.Load() {
		w.syncedLSN.Store(info.MaxLSN)
	}
	w.segs = found
	w.cur = nil
	if after > w.truncLSN {
		w.truncLSN = after
	}
	if n := len(found); n > 0 {
		w.lastSlot = found[n-1].slot
	}
	return info, nil
}

// AdvanceLSN raises the LSN counters and the truncation horizon to at
// least lsn, as Recover(m, lsn, fn) sets them. A recovery that scans from
// LSN 0 — to see commit records a checkpoint image's LSN covers — calls it
// with the image's checkpoint LSN, so new records and the next checkpoint
// LSN stay above the image's.
func (w *Manager) AdvanceLSN(lsn uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range []*atomic.Uint64{&w.lastLSN, &w.flushedLSN, &w.syncedLSN} {
		if lsn > c.Load() {
			c.Store(lsn)
		}
	}
	w.truncLSN = max(w.truncLSN, lsn)
}

// Scan walks the live segments in id order, invoking fn for each record
// until fn returns false, a torn block is reached, or the log ends. It
// reads from the device, so only flushed records are visible.
func (w *Manager) Scan(m *simtime.Meter, fn func(Record) bool) error {
	w.mu.Lock()
	segs := make([]*segment, len(w.segs))
	copy(segs, w.segs)
	w.mu.Unlock()
	for _, s := range segs {
		recs, sealed, err := w.scanSegment(m, s.slot, s.id)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if !fn(r) {
				return nil
			}
		}
		if !sealed && s != segs[len(segs)-1] {
			return nil // torn mid-log: stop conservatively
		}
	}
	return nil
}

// SegmentReader iterates the records of one live segment; replication uses
// it to ship sealed (and tailing) segments. Reads hit the device, so a
// tailing segment yields exactly its flushed prefix.
type SegmentReader struct {
	recs   []Record
	idx    int
	sealed bool
	id     uint64
}

// SegmentReader opens a reader over the live segment with the given id.
func (w *Manager) SegmentReader(m *simtime.Meter, segID uint64) (*SegmentReader, error) {
	w.mu.Lock()
	var target *segment
	for _, s := range w.segs {
		if s.id == segID {
			target = s
			break
		}
	}
	if target == nil {
		w.mu.Unlock()
		return nil, fmt.Errorf("wal: segment %d is not live", segID)
	}
	slot := target.slot
	w.mu.Unlock()
	recs, sealed, err := w.scanSegment(m, slot, segID)
	if err != nil {
		return nil, err
	}
	return &SegmentReader{recs: recs, sealed: sealed, id: segID}, nil
}

// Next returns the next record, or io.EOF at the end of the segment.
func (r *SegmentReader) Next() (Record, error) {
	if r.idx >= len(r.recs) {
		return Record{}, io.EOF
	}
	rec := r.recs[r.idx]
	r.idx++
	return rec, nil
}

// Sealed reports whether the segment ended with a seal block when the
// reader was opened.
func (r *SegmentReader) Sealed() bool { return r.sealed }

// ID returns the segment id the reader iterates.
func (r *SegmentReader) ID() uint64 { return r.id }

// ReadFrom collects every durable record with LSN in (after, DurableLSN]
// from the live segments in id order — the primary's replication pull
// path. resync=true reports that records above after have already been
// truncated into a checkpoint image, so the replica must full-resync and
// restart from durable. Payloads are copied.
func (w *Manager) ReadFrom(m *simtime.Meter, after uint64) (recs []Record, durable uint64, resync bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	durable = w.syncedLSN.Load()
	if after < w.truncLSN {
		return nil, durable, true, nil
	}
	for _, s := range w.segs {
		if s.lastLSN <= after && s.sealed {
			continue
		}
		segRecs, _, serr := w.scanSegment(m, s.slot, s.id)
		if serr != nil {
			return nil, durable, false, serr
		}
		for _, r := range segRecs {
			if r.LSN > after && r.LSN <= durable {
				recs = append(recs, r)
			}
		}
	}
	return recs, durable, false, nil
}
