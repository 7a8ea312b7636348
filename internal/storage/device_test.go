package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"blobdb/internal/simtime"
)

func TestMemDeviceReadWriteRoundtrip(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 64, nil)
	w := make([]byte, 3*DefaultPageSize)
	for i := range w {
		w[i] = byte(i % 251)
	}
	if err := d.WritePages(nil, 5, 3, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 3*DefaultPageSize)
	if err := d.ReadPages(nil, 5, 3, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Error("read data differs from written data")
	}
}

func TestMemDeviceRangeErrors(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 8, nil)
	buf := make([]byte, 16*DefaultPageSize)
	cases := []struct {
		pid PID
		n   int
	}{
		{8, 1},  // starts past end
		{7, 2},  // runs past end
		{0, 9},  // longer than device
		{0, -1}, // negative count
	}
	for _, c := range cases {
		if err := d.ReadPages(nil, c.pid, c.n, buf); !errors.Is(err, ErrOutOfSpace) {
			t.Errorf("ReadPages(%d,%d) = %v, want ErrOutOfSpace", c.pid, c.n, err)
		}
		if err := d.WritePages(nil, c.pid, c.n, buf); !errors.Is(err, ErrOutOfSpace) {
			t.Errorf("WritePages(%d,%d) = %v, want ErrOutOfSpace", c.pid, c.n, err)
		}
	}
}

func TestMemDeviceShortBuffer(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 8, nil)
	short := make([]byte, DefaultPageSize-1)
	if err := d.ReadPages(nil, 0, 1, short); err == nil {
		t.Error("want error for short read buffer")
	}
	if err := d.WritePages(nil, 0, 1, short); err == nil {
		t.Error("want error for short write buffer")
	}
}

func TestMemDeviceStats(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 8, nil)
	buf := make([]byte, 2*DefaultPageSize)
	d.WritePages(nil, 0, 2, buf)
	d.ReadPages(nil, 0, 1, buf)
	d.Sync(nil)
	s := d.Stats().Snapshot()
	if s.WriteOps != 1 || s.BytesWritten != 2*DefaultPageSize {
		t.Errorf("write stats = %+v", s)
	}
	if s.ReadOps != 1 || s.BytesRead != DefaultPageSize {
		t.Errorf("read stats = %+v", s)
	}
	if s.Syncs != 1 {
		t.Errorf("syncs = %d, want 1", s.Syncs)
	}
	d.Stats().Reset()
	if d.Stats().BytesWritten() != 0 {
		t.Error("Reset did not zero counters")
	}
}

// TestMemDeviceChargesMeter: every command charges exactly what the
// device's own cost model prices, for the default NVMe model and for the
// engine benchmarks' async-write model, whose writes and syncs carry no
// command latency (§III-C: the extent flush and the group-commit sync are
// off the worker's path) while reads stay synchronous. A multi-segment
// vectored command pays the random-access penalty under both.
func TestMemDeviceChargesMeter(t *testing.T) {
	for name, cost := range map[string]*simtime.DeviceCostModel{"nvme": simtime.DefaultNVMe(), "async-write": asyncWriteModel()} {
		d := NewMemDevice(DefaultPageSize, 64, cost)
		buf := make([]byte, 2*DefaultPageSize)
		two := func() []Seg {
			return []Seg{{PID: 20, N: 1, Buf: buf[:DefaultPageSize]}, {PID: 30, N: 1, Buf: buf[DefaultPageSize:]}}
		}
		// In order: the first write continues the device's initial
		// position (sequential); every later command starts elsewhere.
		for _, c := range []struct {
			op   string
			want time.Duration
			do   func(m *simtime.Meter) error
		}{
			{"write", cost.WriteCost(DefaultPageSize, true), func(m *simtime.Meter) error { return d.WritePages(m, 0, 1, buf) }},
			{"random write", cost.WriteCost(DefaultPageSize, false), func(m *simtime.Meter) error { return d.WritePages(m, 9, 1, buf) }},
			{"sync", cost.SyncCost(), d.Sync},
			{"read", cost.ReadCost(DefaultPageSize, false), func(m *simtime.Meter) error { return d.ReadPages(m, 3, 1, buf) }},
			{"vectored write", cost.WriteCost(2*DefaultPageSize, false), func(m *simtime.Meter) error { return WriteVec(d, m, two()) }},
			{"vectored read", cost.ReadCost(2*DefaultPageSize, false), func(m *simtime.Meter) error { return ReadVec(d, m, two()) }},
		} {
			m := simtime.NewMeter()
			if err := c.do(m); err != nil {
				t.Fatalf("%s %s: %v", name, c.op, err)
			}
			if m.Elapsed() != c.want || c.want == 0 && c.op != "sync" {
				t.Errorf("%s %s charged %v, want %v", name, c.op, m.Elapsed(), c.want)
			}
		}
	}
}

// asyncWriteModel is the device model the engine benchmarks run on
// (§III-C: the extent flush and the group-commit sync are off the
// worker's path): writes and syncs carry no command latency, reads keep
// theirs.
func asyncWriteModel() *simtime.DeviceCostModel {
	cost := simtime.DefaultNVMe()
	cost.WriteLatency, cost.SyncLatency = 0, 0
	return cost
}

func TestAsyncWriteChargesBandwidthOnly(t *testing.T) {
	cost := asyncWriteModel()
	d := NewMemDevice(DefaultPageSize, 1<<14, cost)
	nvme := NewMemDevice(DefaultPageSize, 1<<14, simtime.DefaultNVMe())

	// A one-page write under the async-write model must cost strictly less
	// than one under the default model (no latency component) but still
	// more than zero: exactly its bandwidth share.
	buf := make([]byte, DefaultPageSize)
	mAsync := simtime.NewMeter()
	if err := d.WritePages(mAsync, 9, 1, buf); err != nil {
		t.Fatal(err)
	}
	mSync := simtime.NewMeter()
	if err := nvme.WritePages(mSync, 9, 1, buf); err != nil {
		t.Fatal(err)
	}
	bw := time.Duration(float64(DefaultPageSize) / cost.WriteBW * 1e9)
	if mAsync.Elapsed() == 0 || mAsync.Elapsed() != bw {
		t.Errorf("async write charged %v, want its bandwidth share %v", mAsync.Elapsed(), bw)
	}
	if mAsync.Elapsed() >= mSync.Elapsed() {
		t.Errorf("async write (%v) should be cheaper than sync (%v)", mAsync.Elapsed(), mSync.Elapsed())
	}
}

func TestAsyncSyncChargesNothing(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 64, asyncWriteModel())
	m := simtime.NewMeter()
	if err := d.Sync(m); err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() != 0 {
		t.Errorf("group-commit sync charged %v to the worker", m.Elapsed())
	}
	if d.Stats().Syncs() != 1 {
		t.Error("sync not counted by the device")
	}
}

func TestAsyncReadsStaySynchronous(t *testing.T) {
	cost := asyncWriteModel()
	d := NewMemDevice(DefaultPageSize, 64, cost)
	m := simtime.NewMeter()
	buf := make([]byte, DefaultPageSize)
	if err := d.ReadPages(m, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() < cost.ReadLatency {
		t.Errorf("read charged %v, want at least the full latency %v", m.Elapsed(), cost.ReadLatency)
	}
}

func TestAsyncVecCostModel(t *testing.T) {
	cost := asyncWriteModel()
	d := NewMemDevice(DefaultPageSize, 256, cost)
	segs := []Seg{
		{PID: 0, N: 1, Buf: make([]byte, DefaultPageSize)},
		{PID: 8, N: 1, Buf: make([]byte, DefaultPageSize)},
	}
	m := simtime.NewMeter()
	if err := WriteVec(d, m, segs); err != nil {
		t.Fatal(err)
	}
	// An async vectored write carries no latency, so the random-access
	// penalty multiplies nothing: the charge is exactly the bandwidth
	// share of the two pages under the device's own model.
	want := time.Duration(float64(2*DefaultPageSize) / cost.WriteBW * 1e9)
	if m.Elapsed() != want {
		t.Errorf("async vectored write charged %v, want the bandwidth share %v", m.Elapsed(), want)
	}
}

func TestMemDeviceSequentialCheaperThanRandom(t *testing.T) {
	cost := simtime.DefaultNVMe()
	buf := make([]byte, DefaultPageSize)

	seq := NewMemDevice(DefaultPageSize, 1024, cost)
	mSeq := simtime.NewMeter()
	for i := 0; i < 64; i++ {
		seq.ReadPages(mSeq, PID(i), 1, buf)
	}

	rnd := NewMemDevice(DefaultPageSize, 1024, cost)
	mRnd := simtime.NewMeter()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		rnd.ReadPages(mRnd, PID(rng.Intn(1024)), 1, buf)
	}

	if mSeq.Elapsed() >= mRnd.Elapsed() {
		t.Errorf("sequential (%v) should be cheaper than random (%v)", mSeq.Elapsed(), mRnd.Elapsed())
	}
}

func TestMemDeviceRoundtripQuick(t *testing.T) {
	d := NewMemDevice(512, 128, nil)
	f := func(pidRaw uint8, data []byte) bool {
		pid := PID(pidRaw % 120)
		n := len(data)/512 + 1
		if uint64(pid)+uint64(n) > 120 {
			return true // out of tested range; skip
		}
		w := make([]byte, n*512)
		copy(w, data)
		if err := d.WritePages(nil, pid, n, w); err != nil {
			return false
		}
		r := make([]byte, n*512)
		if err := d.ReadPages(nil, pid, n, r); err != nil {
			return false
		}
		return bytes.Equal(w, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := NewFileDevice(path, DefaultPageSize, 32, simtime.DefaultNVMe())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if d.PageSize() != DefaultPageSize || d.NumPages() != 32 {
		t.Fatalf("geometry = %d x %d", d.PageSize(), d.NumPages())
	}
	w := bytes.Repeat([]byte{0xAB}, 2*DefaultPageSize)
	m := simtime.NewMeter()
	if err := d.WritePages(m, 10, 2, w); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(m); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 2*DefaultPageSize)
	if err := d.ReadPages(m, 10, 2, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Error("file device roundtrip mismatch")
	}
	if err := d.ReadPages(nil, 31, 2, r); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("out-of-range read = %v, want ErrOutOfSpace", err)
	}
	if m.Elapsed() == 0 {
		t.Error("file device should charge virtual time")
	}
}

// TestFileDeviceLocksItsImage: a second open of an image that an open
// FileDevice holds fails with ErrDeviceLocked — also a truncating open,
// which must not clear the held image — and succeeds once it is closed.
func TestFileDeviceLocksItsImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := OpenFileDevice(path, DefaultPageSize, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := bytes.Repeat([]byte{0x5A}, DefaultPageSize)
	if err := d.WritePages(nil, 3, 1, w); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDevice(path, DefaultPageSize, 8, nil); !errors.Is(err, ErrDeviceLocked) {
		t.Fatalf("second open = %v, want ErrDeviceLocked", err)
	}
	if _, err := NewFileDevice(path, DefaultPageSize, 8, nil); !errors.Is(err, ErrDeviceLocked) {
		t.Fatalf("second truncating open = %v, want ErrDeviceLocked", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFileDevice(path, DefaultPageSize, 8, nil)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer d2.Close()
	r := make([]byte, DefaultPageSize)
	if err := d2.ReadPages(nil, 3, 1, r); err != nil || !bytes.Equal(r, w) {
		t.Fatalf("page written before the refused opens did not survive them (err %v)", err)
	}
}

func TestReadWriteVec(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 64, simtime.DefaultNVMe())

	segs := []Seg{
		{PID: 1, N: 2, Buf: bytes.Repeat([]byte{1}, 2*DefaultPageSize)},
		{PID: 10, N: 1, Buf: bytes.Repeat([]byte{2}, DefaultPageSize)},
		{PID: 30, N: 3, Buf: bytes.Repeat([]byte{3}, 3*DefaultPageSize)},
	}
	m := simtime.NewMeter()
	if err := WriteVec(d, m, segs); err != nil {
		t.Fatal(err)
	}
	batchWrite := m.Elapsed()
	if batchWrite == 0 {
		t.Fatal("WriteVec should charge virtual time")
	}

	// The same segments written one-by-one must cost strictly more: each
	// command pays its own (random) latency instead of overlapping.
	d2 := NewMemDevice(DefaultPageSize, 64, simtime.DefaultNVMe())
	m2 := simtime.NewMeter()
	d2.WritePages(m2, 1, 2, segs[0].Buf)
	d2.WritePages(m2, 10, 1, segs[1].Buf)
	d2.WritePages(m2, 30, 3, segs[2].Buf)
	if m2.Elapsed() <= batchWrite {
		t.Errorf("sequential writes (%v) should cost more than batched (%v)", m2.Elapsed(), batchWrite)
	}

	// Read back through ReadVec and verify contents.
	rsegs := []Seg{
		{PID: 1, N: 2, Buf: make([]byte, 2*DefaultPageSize)},
		{PID: 10, N: 1, Buf: make([]byte, DefaultPageSize)},
		{PID: 30, N: 3, Buf: make([]byte, 3*DefaultPageSize)},
	}
	if err := ReadVec(d, m, rsegs); err != nil {
		t.Fatal(err)
	}
	for i := range segs {
		if !bytes.Equal(rsegs[i].Buf, segs[i].Buf) {
			t.Errorf("segment %d mismatch", i)
		}
	}
}

func TestVecErrorPropagates(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 4, nil)
	bad := []Seg{{PID: 3, N: 2, Buf: make([]byte, 2*DefaultPageSize)}}
	if err := ReadVec(d, nil, bad); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("ReadVec = %v, want ErrOutOfSpace", err)
	}
	if err := WriteVec(d, nil, bad); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("WriteVec = %v, want ErrOutOfSpace", err)
	}
}

func TestVecCostEmpty(t *testing.T) {
	if got := vecCost(simtime.DefaultNVMe(), nil, true); got != 0 {
		t.Errorf("empty batch cost = %v, want 0", got)
	}
	if got := vecCost(nil, []Seg{{N: 1}}, false); got != time.Duration(0) {
		t.Errorf("nil model cost = %v, want 0", got)
	}
}

func TestVecDoesNotMutateCallerSegs(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 64, nil)
	// Oversized buffers: the vec helpers must trim locally, never by
	// rewriting the caller's Seg.Buf slice headers.
	mk := func() []Seg {
		return []Seg{
			{PID: 1, N: 1, Buf: make([]byte, 3*DefaultPageSize)},
			{PID: 5, N: 2, Buf: make([]byte, 2*DefaultPageSize+17)},
		}
	}
	for name, call := range map[string]func([]Seg) error{
		"ReadVec":  func(s []Seg) error { return ReadVec(d, nil, s) },
		"WriteVec": func(s []Seg) error { return WriteVec(d, nil, s) },
	} {
		segs := mk()
		wantLen := []int{len(segs[0].Buf), len(segs[1].Buf)}
		if err := call(segs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range segs {
			if len(segs[i].Buf) != wantLen[i] {
				t.Errorf("%s truncated caller's segment %d buffer: %d -> %d bytes",
					name, i, wantLen[i], len(segs[i].Buf))
			}
		}
	}
	// Stats: the two calls above were one vectored submission each.
	if d.Stats().VecReads() != 1 || d.Stats().VecWrites() != 1 {
		t.Errorf("vec stats = %d reads / %d writes, want 1/1",
			d.Stats().VecReads(), d.Stats().VecWrites())
	}
}

func TestVecSubmissionStats(t *testing.T) {
	d := NewMemDevice(DefaultPageSize, 64, nil)
	segs := []Seg{
		{PID: 1, N: 1, Buf: make([]byte, DefaultPageSize)},
		{PID: 5, N: 2, Buf: make([]byte, 2*DefaultPageSize)},
		{PID: 9, N: 1, Buf: make([]byte, DefaultPageSize)},
	}
	if err := WriteVec(d, nil, segs); err != nil {
		t.Fatal(err)
	}
	if err := ReadVec(d, nil, segs); err != nil {
		t.Fatal(err)
	}
	s := d.Stats().Snapshot()
	if s.VecReads != 1 || s.VecReadSegs != 3 {
		t.Errorf("VecReads/Segs = %d/%d, want 1/3", s.VecReads, s.VecReadSegs)
	}
	if s.VecWrites != 1 || s.VecWriteSegs != 3 {
		t.Errorf("VecWrites/Segs = %d/%d, want 1/3", s.VecWrites, s.VecWriteSegs)
	}
	// Per-command counters still track one op per segment.
	if s.ReadOps != 3 || s.WriteOps != 3 {
		t.Errorf("ReadOps/WriteOps = %d/%d, want 3/3", s.ReadOps, s.WriteOps)
	}
}

// blockingDevice parks every read until release is closed and records the
// most commands it ever held at once.
type blockingDevice struct {
	Device
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	in      int
	peak    int
}

func (d *blockingDevice) ReadPages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	d.mu.Lock()
	d.in++
	d.peak = max(d.peak, d.in)
	d.mu.Unlock()
	d.entered <- struct{}{}
	<-d.release
	d.mu.Lock()
	d.in--
	d.mu.Unlock()
	return d.Device.ReadPages(m, pid, n, buf)
}

// TestSubQueueBoundsConcurrentCommands: a depth-2 gate lets two of four
// concurrent callers' commands into the device; the other two wait for a
// slot on their own goroutines and run once one frees.
func TestSubQueueBoundsConcurrentCommands(t *testing.T) {
	dev := &blockingDevice{
		Device:  NewMemDevice(DefaultPageSize, 8, nil),
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	q := NewSubQueue(dev, 2)
	gated := q.Device()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(pid PID) {
			defer wg.Done()
			if err := gated.ReadPages(nil, pid, 1, make([]byte, DefaultPageSize)); err != nil {
				t.Error(err)
			}
		}(PID(i))
	}
	<-dev.entered
	<-dev.entered
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().SubmitWaits < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("callers past depth never waited: %+v", q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := q.Stats(); s.Inflight != 2 {
		t.Errorf("in flight with both slots taken = %d, want 2", s.Inflight)
	}
	close(dev.release)
	wg.Wait()

	if dev.peak > 2 {
		t.Errorf("%d commands in the device at once, want at most 2", dev.peak)
	}
	s := q.Stats()
	if s.Depth != 2 || s.SubmitWaits == 0 || s.Submitted != 4 || s.Completed != s.Submitted || s.Inflight != 0 {
		t.Errorf("queue stats = %+v, want depth 2, waits > 0, 4 submitted and completed, none in flight", s)
	}
	if d := NewSubQueue(dev, 0).Stats().Depth; d != DefaultQueueDepth {
		t.Errorf("default depth = %d, want %d", d, DefaultQueueDepth)
	}
}
