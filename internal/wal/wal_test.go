package wal

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

const ps = storage.DefaultPageSize

func newWAL(t *testing.T, pages uint64) (*Manager, *storage.MemDevice) {
	t.Helper()
	dev := storage.NewMemDevice(ps, pages, nil)
	return NewManager(dev, 0, storage.PID(pages)), dev
}

func TestAppendAndScan(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), nil, bytes.Repeat([]byte{7}, 1000)}
	for i, p := range payloads {
		if _, err := l.AppendLSN(nil, uint64(i+1), RecHeapPut, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := commitSync(l, nil, 99); err != nil {
		t.Fatal(err)
	}

	var got []Record
	if err := w.Scan(nil, func(r Record) bool {
		got = append(got, Record{LSN: r.LSN, TxnID: r.TxnID, Type: r.Type,
			Payload: append([]byte(nil), r.Payload...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads)+1 { // +1 commit record
		t.Fatalf("scanned %d records, want %d", len(got), len(payloads)+1)
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i].Payload, p) {
			t.Errorf("record %d payload mismatch", i)
		}
		if got[i].TxnID != uint64(i+1) || got[i].Type != RecHeapPut {
			t.Errorf("record %d header = %+v", i, got[i])
		}
	}
	if got[len(got)-1].Type != RecCommit || got[len(got)-1].TxnID != 99 {
		t.Errorf("last record = %+v, want commit of txn 99", got[len(got)-1])
	}
}

func TestLSNsIncrease(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	var prev uint64
	for i := 0; i < 10; i++ {
		lsn, err := l.AppendLSN(nil, 1, RecHeapPut, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= prev {
			t.Fatalf("LSN %d not increasing after %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestScanStopsEarly(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	for i := 0; i < 5; i++ {
		l.AppendLSN(nil, 1, RecHeapPut, []byte{byte(i)})
	}
	l.Flush(nil)
	n := 0
	w.Scan(nil, func(r Record) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("scan visited %d records, want 3", n)
	}
}

func TestScanEmptyLog(t *testing.T) {
	w, _ := newWAL(t, 256)
	called := false
	if err := w.Scan(nil, func(Record) bool { called = true; return true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("scan of empty log should visit nothing")
	}
}

func TestUnflushedRecordsNotDurable(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	l.AppendLSN(nil, 1, RecHeapPut, []byte("lost"))
	// Simulated crash: buffer never flushed.
	w.CrashReset()
	n := 0
	w.Scan(nil, func(Record) bool { n++; return true })
	if n != 0 {
		t.Errorf("unflushed record visible after crash (%d records)", n)
	}
}

func TestRecordTooLarge(t *testing.T) {
	w, _ := newWAL(t, 256)
	w.SetBufferCap(4096)
	l := w.NewWriter()
	if _, err := l.AppendLSN(nil, 1, RecHeapPut, make([]byte, 8192)); err == nil {
		t.Error("oversized record should fail")
	}
}

func TestAppendFlushesWhenBufferFull(t *testing.T) {
	w, dev := newWAL(t, 256)
	w.SetBufferCap(4096)
	l := w.NewWriter()
	// Each record ~1KB; the 5th must force a flush.
	for i := 0; i < 6; i++ {
		if _, err := l.AppendLSN(nil, 1, RecHeapPut, make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Stats().WriteOps() == 0 {
		t.Error("full buffer should auto-flush")
	}
	if w.Flushes() == 0 {
		t.Error("flush counter not incremented")
	}
}

func TestAppendBlobDataSegments(t *testing.T) {
	w, _ := newWAL(t, 4096)
	w.SetBufferCap(8192)
	l := w.NewWriter()
	blob := make([]byte, 50_000)
	for i := range blob {
		blob[i] = byte(i % 97)
	}
	if err := l.AppendBlobData(nil, 1, blob); err != nil {
		t.Fatal(err)
	}
	if err := commitSync(l, nil, 1); err != nil {
		t.Fatal(err)
	}
	var rebuilt []byte
	segs := 0
	w.Scan(nil, func(r Record) bool {
		if r.Type == RecBlobData {
			segs++
			rebuilt = append(rebuilt, r.Payload...)
		}
		return true
	})
	if segs < 7 {
		t.Errorf("blob split into %d segments, want >= 7 for 50KB over 8KB buffers", segs)
	}
	if !bytes.Equal(rebuilt, blob) {
		t.Error("reassembled blob differs")
	}
}

func TestCheckpointThreshold(t *testing.T) {
	w, _ := newWAL(t, 4096)
	w.CheckpointThreshold = 64 << 10
	ckptCalls := 0
	w.OnCheckpoint = func(m *simtime.Meter, ckptLSN uint64) error { ckptCalls++; return nil }
	l := w.NewWriter()
	for i := 0; i < 100; i++ {
		l.AppendLSN(nil, 1, RecHeapPut, make([]byte, 2048))
	}
	commitSync(l, nil, 1)
	if w.Checkpoints() == 0 || ckptCalls == 0 {
		t.Errorf("threshold checkpointing did not fire (ckpts=%d calls=%d)",
			w.Checkpoints(), ckptCalls)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	l.AppendLSN(nil, 1, RecHeapPut, []byte("before"))
	l.Flush(nil)
	if err := w.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	l.AppendLSN(nil, 2, RecHeapPut, []byte("after"))
	l.Flush(nil)
	var seen []string
	w.Scan(nil, func(r Record) bool {
		seen = append(seen, string(r.Payload))
		return true
	})
	if len(seen) != 1 || seen[0] != "after" {
		t.Errorf("post-checkpoint scan = %v, want [after]", seen)
	}
}

// TestSegmentIDsNeverRepeatAcrossRestarts: a checkpoint erases every
// segment header but leaves the flush blocks behind them. The next
// lifetime opens its first segment in the same slot; had it reused the
// erased segment's id, a later recovery scan would read past the new
// blocks into the older lifetime's blocks, which carry the same id.
func TestSegmentIDsNeverRepeatAcrossRestarts(t *testing.T) {
	const pages = 256
	dev := storage.NewMemDevice(ps, pages, nil)
	life := func() *Manager {
		w := NewManager(dev, 0, pages)
		if _, err := w.Recover(nil, 0, func(Record) bool { return true }); err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Lifetime 1: five one-record commits in one segment, then a
	// checkpoint that erases its header.
	w := life()
	for txn := uint64(1); txn <= 5; txn++ {
		l := w.NewWriter()
		l.AppendLSN(nil, txn, RecHeapPut, []byte("old"))
		if err := commitSync(l, nil, txn); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	if err := w.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	ckptLSN := w.LastLSN()
	// Lifetime 2: nothing to replay; fewer blocks into the reused slot.
	w = life()
	w.AdvanceLSN(ckptLSN)
	for txn := uint64(101); txn <= 102; txn++ {
		l := w.NewWriter()
		l.AppendLSN(nil, txn, RecHeapPut, []byte("new"))
		if err := commitSync(l, nil, txn); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	// Lifetime 3 sees exactly lifetime 2's records.
	w = NewManager(dev, 0, pages)
	var got []uint64
	if _, err := w.Recover(nil, 0, func(r Record) bool {
		if r.TxnID <= 5 || string(r.Payload) == "old" {
			t.Errorf("recovered lifetime 1's record %+v", r)
		}
		got = append(got, r.TxnID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{101, 101, 102, 102}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovered records of txns %v, want %v", got, want)
	}
}

func TestLogFullForcesCheckpoint(t *testing.T) {
	w, _ := newWAL(t, 8) // tiny 32KB log region
	w.SetBufferCap(8192)
	l := w.NewWriter()
	for i := 0; i < 20; i++ {
		if _, err := l.AppendLSN(nil, 1, RecHeapPut, make([]byte, 7000)); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(nil); err != nil {
			t.Fatal(err)
		}
	}
	if w.Checkpoints() == 0 {
		t.Error("log overflow should force a checkpoint")
	}
}

func TestPhyslogWritesMoreAndCheckpointsMore(t *testing.T) {
	// The core §V-B effect: logging blob bytes doubles the log volume and
	// triggers more checkpoints than logging only Blob States.
	run := func(physlog bool) (bytesLogged, ckpts int64, devBytes int64) {
		dev := storage.NewMemDevice(ps, 1<<16, nil)
		w := NewManager(dev, 0, 1<<14)
		w.CheckpointThreshold = 1 << 20
		l := w.NewWriter()
		blob := make([]byte, 100<<10)
		for i := 0; i < 50; i++ {
			if physlog {
				if err := l.AppendBlobData(nil, uint64(i), blob); err != nil {
					panic(err)
				}
			} else {
				if _, err := l.AppendLSN(nil, uint64(i), RecBlobState, make([]byte, 200)); err != nil {
					panic(err)
				}
				// The blob itself goes straight to its extents, once.
				if err := dev.WritePages(nil, storage.PID(1<<14+i*32), 25, make([]byte, 25*ps)); err != nil {
					panic(err)
				}
			}
			commitSync(l, nil, uint64(i))
		}
		return w.BytesLogged(), w.Checkpoints(), dev.Stats().BytesWritten()
	}
	stateBytes, stateCkpts, stateDev := run(false)
	physBytes, physCkpts, physDev := run(true)
	if physBytes < 10*stateBytes {
		t.Errorf("physlog logged %d bytes vs %d for state-only; want much larger", physBytes, stateBytes)
	}
	if physCkpts <= stateCkpts {
		t.Errorf("physlog checkpoints = %d, state-only = %d; want more for physlog", physCkpts, stateCkpts)
	}
	// Total device traffic: state-only writes each blob once (plus tiny
	// log); physlog writes the blob into the log as well.
	if physDev < stateDev {
		t.Errorf("physlog device bytes = %d < state-only %d", physDev, stateDev)
	}
}

// slowSyncDevice makes Sync take real wall time so concurrent committers
// overlap, which is the condition under which group commit amortizes.
type slowSyncDevice struct {
	*storage.MemDevice
	delay time.Duration
}

func (d *slowSyncDevice) Sync(m *simtime.Meter) error {
	time.Sleep(d.delay)
	return d.MemDevice.Sync(m)
}

func TestGroupCommitAmortizesSyncs(t *testing.T) {
	dev := &slowSyncDevice{storage.NewMemDevice(ps, 1<<14, nil), 200 * time.Microsecond}
	w := NewManager(dev, 0, 1<<12)
	const workers = 8
	const commitsPer = 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			l := w.NewWriter()
			for j := 0; j < commitsPer; j++ {
				txn := uint64(id*1000 + j)
				if _, err := l.AppendLSN(nil, txn, RecHeapPut, []byte("x")); err != nil {
					t.Error(err)
					return
				}
				if err := commitSync(l, nil, txn); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	totalCommits := int64(workers * commitsPer)
	if syncs := dev.Stats().Syncs(); syncs >= totalCommits {
		t.Errorf("syncs = %d for %d commits; group commit should amortize", syncs, totalCommits)
	}
	// Every committed record must be durable.
	commits := 0
	w.Scan(nil, func(r Record) bool {
		if r.Type == RecCommit {
			commits++
		}
		return true
	})
	if int64(commits) != totalCommits {
		t.Errorf("scanned %d commit records, want %d", commits, totalCommits)
	}
}

func TestConcurrentWritersDistinctLSNs(t *testing.T) {
	w, _ := newWAL(t, 4096)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			l := w.NewWriter()
			for j := 0; j < 100; j++ {
				lsn, err := l.AppendLSN(nil, uint64(id), RecHeapPut, []byte(fmt.Sprint(j)))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[lsn] {
					t.Errorf("duplicate LSN %d", lsn)
				}
				seen[lsn] = true
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
}

func TestMeterChargedOnCommit(t *testing.T) {
	dev := storage.NewMemDevice(ps, 4096, simtime.DefaultNVMe())
	w := NewManager(dev, 0, 1024)
	l := w.NewWriter()
	m := simtime.NewMeter()
	l.AppendLSN(m, 1, RecBlobState, make([]byte, 100))
	if err := commitSync(l, m, 1); err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() == 0 {
		t.Error("commit should charge WAL write + sync time")
	}
}

func TestSealSegmentRotates(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	l.AppendLSN(nil, 1, RecHeapPut, []byte("a"))
	l.Flush(nil)
	id, err := w.SealSegment(nil)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("sealing a tailing segment returned id 0")
	}
	// Sealing with no tailing segment is a no-op.
	if id2, err := w.SealSegment(nil); err != nil || id2 != 0 {
		t.Fatalf("seal of nothing = (%d, %v), want (0, nil)", id2, err)
	}
	l.AppendLSN(nil, 2, RecHeapPut, []byte("b"))
	l.Flush(nil)
	segs := w.Segments()
	if len(segs) != 2 {
		t.Fatalf("got %d live segments, want 2", len(segs))
	}
	if !segs[0].Sealed || segs[0].ID != id {
		t.Errorf("first segment = %+v, want sealed id %d", segs[0], id)
	}
	if segs[1].Sealed {
		t.Errorf("tailing segment is sealed: %+v", segs[1])
	}
	if segs[1].ID <= segs[0].ID {
		t.Errorf("segment ids not monotonic: %d then %d", segs[0].ID, segs[1].ID)
	}
}

func TestSegmentReader(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	for i := 0; i < 3; i++ {
		l.AppendLSN(nil, uint64(i), RecHeapPut, []byte{byte(i)})
	}
	l.Flush(nil)
	id, err := w.SealSegment(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.SegmentReader(nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sealed() || r.ID() != id {
		t.Fatalf("reader sealed=%v id=%d, want sealed id %d", r.Sealed(), r.ID(), id)
	}
	for i := 0; i < 3; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.TxnID != uint64(i) || rec.Payload[0] != byte(i) {
			t.Errorf("record %d = %+v", i, rec)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last record err = %v, want io.EOF", err)
	}
	if _, err := w.SegmentReader(nil, id+100); err == nil {
		t.Error("reader over unknown segment should fail")
	}
}

func TestReadFromAndResync(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsn, err := l.AppendLSN(nil, uint64(i), RecHeapPut, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := commitSync(l, nil, 9); err != nil {
		t.Fatal(err)
	}
	recs, durable, resync, err := w.ReadFrom(nil, lsns[1])
	if err != nil || resync {
		t.Fatalf("ReadFrom = resync %v err %v", resync, err)
	}
	if durable != w.DurableLSN() {
		t.Errorf("durable = %d, want %d", durable, w.DurableLSN())
	}
	// Records strictly above lsns[1]: 3 puts + the commit record.
	if len(recs) != 4 {
		t.Fatalf("ReadFrom returned %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.LSN <= lsns[1] || r.LSN > durable {
			t.Errorf("record %d LSN %d outside (%d, %d]", i, r.LSN, lsns[1], durable)
		}
	}
	// After a checkpoint, a stale cursor must be told to resync.
	if err := w.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, resync, _ := w.ReadFrom(nil, lsns[1]); !resync {
		t.Error("ReadFrom below the truncation horizon should demand resync")
	}
	if _, _, resync, _ := w.ReadFrom(nil, w.TruncatedLSN()); resync {
		t.Error("ReadFrom at the truncation horizon should not demand resync")
	}
}

func TestTruncateBelowDropsOnlyCoveredSegments(t *testing.T) {
	w, _ := newWAL(t, 256)
	l := w.NewWriter()
	mkSeg := func(txn uint64) uint64 {
		l.AppendLSN(nil, txn, RecHeapPut, []byte("x"))
		l.Flush(nil)
		last := w.LastLSN()
		if _, err := w.SealSegment(nil); err != nil {
			t.Fatal(err)
		}
		return last
	}
	mkSeg(1)
	seg2last := mkSeg(2)
	l.AppendLSN(nil, 3, RecHeapPut, []byte("tail"))
	l.Flush(nil)
	if n := len(w.Segments()); n != 3 {
		t.Fatalf("built %d segments, want 3", n)
	}
	if err := w.TruncateBelow(nil, seg2last+1); err != nil {
		t.Fatal(err)
	}
	segs := w.Segments()
	if len(segs) != 1 || segs[0].Sealed {
		t.Fatalf("after truncate: %+v, want only the tailing segment", segs)
	}
	if w.TruncatedLSN() < seg2last {
		t.Errorf("truncation horizon %d below dropped segment's last LSN %d", w.TruncatedLSN(), seg2last)
	}
	// The dropped segments' headers are gone from the device too.
	cold := NewManager(w.dev, 0, 256)
	n := 0
	if _, err := cold.Recover(nil, 0, func(Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("cold scan after truncate saw %d records, want 1", n)
	}
}

// TestSegmentCountBounded is the disk-usage acceptance check: under
// sustained traffic with checkpointing enabled, the live segment count
// never exceeds the slot ring, and a checkpoint drops every segment at or
// below its LSN.
func TestSegmentCountBounded(t *testing.T) {
	w, _ := newWAL(t, 512)
	w.CheckpointThreshold = 64 << 10
	w.OnCheckpoint = func(m *simtime.Meter, ckptLSN uint64) error { return nil }
	l := w.NewWriter()
	maxLive := 0
	for i := 0; i < 2000; i++ {
		if _, err := l.AppendLSN(nil, uint64(i), RecHeapPut, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := l.Flush(nil); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(w.Segments()); n > maxLive {
			maxLive = n
		}
	}
	if err := l.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if w.Checkpoints() == 0 {
		t.Fatal("sustained traffic never checkpointed")
	}
	if maxLive > DefaultSegments {
		t.Errorf("live segments peaked at %d, above the %d-slot ring", maxLive, DefaultSegments)
	}
	if err := w.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	ckptLSN := w.TruncatedLSN()
	for _, s := range w.Segments() {
		if s.LastLSN != 0 && s.LastLSN <= ckptLSN {
			t.Errorf("segment %+v survived a checkpoint at LSN %d", s, ckptLSN)
		}
	}
	if n := len(w.Segments()); n != 0 {
		t.Errorf("%d segments live immediately after checkpoint, want 0", n)
	}
}

// commitSync commits txnID the way the group committer does: the commit
// record is flushed with CommitNoSync, then Manager.Sync makes it durable.
func commitSync(l *Writer, m *simtime.Meter, txnID uint64) error {
	if _, err := l.CommitNoSync(m, txnID); err != nil {
		return err
	}
	return l.mgr.Sync(m)
}
