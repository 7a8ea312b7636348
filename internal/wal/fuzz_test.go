package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"blobdb/internal/storage"
)

// FuzzWALRecord throws arbitrary bytes at the cold-recovery segment scan
// and round-trips fuzz-derived records through the writer. Recover walks
// raw device pages with no in-memory state, so it must tolerate any torn,
// truncated, or bit-flipped log image without panicking, and a log the
// manager wrote itself must read back record-for-record.
func FuzzWALRecord(f *testing.F) {
	const pageSize = 512
	const logPages = 32

	// Seed corpus: an empty region, a valid single-record log, a torn
	// flush header, and a declared length that overruns the slot. More
	// seeds are checked in under testdata/fuzz/FuzzWALRecord.
	f.Add([]byte{})
	{
		dev := storage.NewMemDevice(pageSize, logPages, nil)
		m := NewManager(dev, 0, logPages)
		w := m.NewWriter()
		if _, err := w.AppendLSN(nil, 7, RecBlobState, []byte("seed-payload")); err != nil {
			f.Fatal(err)
		}
		if err := commitSync(w, nil, 7); err != nil {
			f.Fatal(err)
		}
		w.Close()
		img := make([]byte, logPages*pageSize)
		if err := dev.ReadPages(nil, 0, logPages, img); err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		torn := append([]byte(nil), img...)
		torn[pageSize+8] = 0xff // flush-block CRC corrupted
		f.Add(torn)
	}
	{
		// A lone flush block with a huge declared payload length and no
		// segment header before it.
		hdr := make([]byte, flushHeaderLen)
		binary.LittleEndian.PutUint32(hdr[0:], flushMagic)
		binary.LittleEndian.PutUint32(hdr[4:], 1<<30)
		binary.LittleEndian.PutUint64(hdr[12:], 1) // segID
		f.Add(hdr)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dev := storage.NewMemDevice(pageSize, logPages, nil)
		img := make([]byte, logPages*pageSize)
		copy(img, data)
		if err := dev.WritePages(nil, 0, logPages, img); err != nil {
			t.Fatal(err)
		}
		m := NewManager(dev, 0, logPages)
		// Must never panic; errors and early stops are both legal. Every
		// surfaced record must carry an intact (CRC-verified) payload slice,
		// and LSNs must ascend within the scan.
		prev := uint64(0)
		_, _ = m.Recover(nil, 0, func(r Record) bool {
			_ = append([]byte(nil), r.Payload...)
			if r.LSN <= prev {
				t.Fatalf("recovery yielded non-ascending LSN %d after %d", r.LSN, prev)
			}
			prev = r.LSN
			return true
		})

		// Round-trip: frame up to 4 fuzz-derived records, then recover them
		// verbatim on a cold manager over the same device.
		dev2 := storage.NewMemDevice(pageSize, logPages, nil)
		m2 := NewManager(dev2, 0, logPages)
		maxPayload := m2.MaxRecordBytes()
		type rec struct {
			txn     uint64
			typ     RecType
			payload []byte
		}
		var want []rec
		rest := data
		for i := 0; i < 4 && len(rest) > 0; i++ {
			n := int(rest[0]) * 4
			if n > maxPayload {
				n = maxPayload
			}
			if n > len(rest)-1 {
				n = len(rest) - 1
			}
			want = append(want, rec{
				txn:     uint64(i + 1),
				typ:     RecType(rest[0]%6) + 1,
				payload: rest[1 : 1+n],
			})
			rest = rest[1+n:]
		}
		w := m2.NewWriter()
		defer w.Close()
		for _, r := range want {
			if _, err := w.AppendLSN(nil, r.txn, r.typ, r.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(nil); err != nil {
			t.Fatal(err)
		}
		cold := NewManager(dev2, 0, logPages)
		var got []rec
		if _, err := cold.Recover(nil, 0, func(r Record) bool {
			got = append(got, rec{txn: r.TxnID, typ: r.Type, payload: append([]byte(nil), r.Payload...)})
			return true
		}); err != nil {
			t.Fatalf("recovery of self-written log: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("round-trip: wrote %d records, read %d", len(want), len(got))
		}
		for i := range want {
			if got[i].txn != want[i].txn || got[i].typ != want[i].typ ||
				!bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("round-trip: record %d diverged", i)
			}
		}
	})
}

// FuzzSegmentHeaderDecode exercises the segment-header codec: arbitrary
// bytes must never decode to ok (unless they happen to be CRC-consistent),
// a decode must round-trip through encode, and every valid encoding must
// decode to what was encoded.
func FuzzSegmentHeaderDecode(f *testing.F) {
	const pageSize = 512

	// Seed corpus (more under testdata/fuzz/FuzzSegmentHeaderDecode): a
	// valid header, a CRC-corrupted one, a wrong magic, and a short buffer.
	valid := make([]byte, pageSize)
	encodeSegmentHeader(valid, 42, 99)
	f.Add(valid)
	crcFlip := append([]byte(nil), valid...)
	crcFlip[24] ^= 0x01
	f.Add(crcFlip)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	f.Add([]byte{0x47, 0x45, 0x53, 0x57}) // magic only, truncated

	f.Fuzz(func(t *testing.T, data []byte) {
		id, base, ok := decodeSegmentHeader(data)
		if ok {
			// A valid decode must survive re-encoding byte-identically over
			// the header prefix.
			buf := make([]byte, segHeaderLen)
			encodeSegmentHeader(buf, id, base)
			if !bytes.Equal(buf, data[:segHeaderLen]) {
				t.Fatalf("decode(%x) = (%d, %d) does not re-encode to its input", data[:segHeaderLen], id, base)
			}
			if id == 0 {
				t.Fatal("decode accepted segment id 0 (reserved for empty slots)")
			}
		}
		// Encoding any (id, base) derived from the fuzz input must decode
		// back exactly — unless id is 0, which is reserved.
		if len(data) >= 16 {
			wantID := binary.LittleEndian.Uint64(data[0:])
			wantBase := binary.LittleEndian.Uint64(data[8:])
			buf := make([]byte, pageSize)
			encodeSegmentHeader(buf, wantID, wantBase)
			gotID, gotBase, gotOK := decodeSegmentHeader(buf)
			if wantID == 0 {
				if gotOK {
					t.Fatal("encoded id 0 decoded ok; id 0 marks an empty slot")
				}
			} else if !gotOK || gotID != wantID || gotBase != wantBase {
				t.Fatalf("round-trip (%d, %d) -> (%d, %d, %v)", wantID, wantBase, gotID, gotBase, gotOK)
			}
		}
	})
}
