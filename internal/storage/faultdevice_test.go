package storage

import (
	"bytes"
	"errors"
	"testing"
)

func newFaultPair(t *testing.T, pages uint64, cfg FaultConfig) (*FaultDevice, *MemDevice) {
	t.Helper()
	inner := NewMemDevice(DefaultPageSize, pages, nil)
	fd, err := NewFaultDevice(inner, cfg)
	if err != nil {
		t.Fatalf("NewFaultDevice: %v", err)
	}
	return fd, inner
}

func pageOf(b byte, n int) []byte {
	buf := make([]byte, n*DefaultPageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestFaultDevicePassThrough(t *testing.T) {
	fd, _ := newFaultPair(t, 16, FaultConfig{Seed: 1, CrashOp: -1})
	want := pageOf(0xaa, 2)
	if err := fd.WritePages(nil, 3, 2, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(want))
	if err := fd.ReadPages(nil, 3, 2, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-back mismatch")
	}
	if err := fd.Sync(nil); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if fd.Ops() != 2 {
		t.Fatalf("ops = %d, want 2 (write + sync)", fd.Ops())
	}
}

func TestFaultDeviceCrashOnWriteTearsSectorPrefix(t *testing.T) {
	// Sync a base image, then arm the crash on the next write: the image
	// must hold the base everywhere except a sector-aligned prefix of the
	// armed write.
	fd, _ := newFaultPair(t, 16, FaultConfig{Seed: 7, CrashOp: 2})
	base := pageOf(0x11, 4)
	if err := fd.WritePages(nil, 0, 4, base); err != nil { // op 0
		t.Fatalf("base write: %v", err)
	}
	if err := fd.Sync(nil); err != nil { // op 1
		t.Fatalf("sync: %v", err)
	}
	over := pageOf(0x22, 4)
	if err := fd.WritePages(nil, 0, 4, over); err == nil || !errors.Is(err, ErrCrashed) { // op 2: armed
		t.Fatalf("armed write: err = %v, want ErrCrashed", err)
	}
	img := fd.CrashImage()
	if img == nil {
		t.Fatal("no crash image")
	}
	// The image must be sector-granular: a prefix of 0x22 sectors then 0x11.
	nbytes := 4 * DefaultPageSize
	cut := 0
	for cut < nbytes && img[cut] == 0x22 {
		cut++
	}
	if cut%DefaultSectorSize != 0 {
		t.Fatalf("tear point %d not sector aligned", cut)
	}
	for i := cut; i < nbytes; i++ {
		if img[i] != 0x11 {
			t.Fatalf("byte %d = %#x after tear point, want 0x11", i, img[i])
		}
	}
	// Post-crash ops fail.
	if err := fd.Sync(nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync err = %v, want ErrCrashed", err)
	}
	if err := fd.ReadPages(nil, 0, 1, make([]byte, DefaultPageSize)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read err = %v, want ErrCrashed", err)
	}
}

func TestFaultDeviceTearModes(t *testing.T) {
	// Two unsynced writes, then CrashNow. Ordered: both land. Scramble:
	// sectors survive per a seeded coin — with enough sectors, some but not
	// all (seed chosen to show a mix).
	run := func(mode TearMode) []byte {
		fd, _ := newFaultPair(t, 16, FaultConfig{Seed: 3, CrashOp: -1, Mode: mode})
		if err := fd.WritePages(nil, 0, 4, pageOf(0x55, 4)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := fd.WritePages(nil, 4, 4, pageOf(0x66, 4)); err != nil {
			t.Fatalf("write: %v", err)
		}
		fd.CrashNow()
		return fd.CrashImage()
	}
	ordered := run(TearOrdered)
	for i := 0; i < 4*DefaultPageSize; i++ {
		if ordered[i] != 0x55 {
			t.Fatalf("ordered image byte %d = %#x, want 0x55", i, ordered[i])
		}
	}
	scrambled := run(TearScramble)
	kept, lost := 0, 0
	for off := 0; off < 8*DefaultPageSize; off += DefaultSectorSize {
		switch scrambled[off] {
		case 0x55, 0x66:
			kept++
		case 0x00:
			lost++
		default:
			t.Fatalf("sector at %d holds %#x, want old or new image", off, scrambled[off])
		}
	}
	if kept == 0 || lost == 0 {
		t.Fatalf("scramble kept %d / lost %d sectors, want a mix", kept, lost)
	}
	// Determinism: the same seed reproduces the identical image.
	if !bytes.Equal(scrambled, run(TearScramble)) {
		t.Fatal("scramble image not deterministic for equal seeds")
	}
}

func TestFaultDeviceSyncBarriersScramble(t *testing.T) {
	// A write covered by a completed Sync must survive scramble; only
	// writes after the last sync are at risk.
	fd, _ := newFaultPair(t, 16, FaultConfig{Seed: 9, CrashOp: -1, Mode: TearScramble})
	if err := fd.WritePages(nil, 0, 2, pageOf(0x77, 2)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := fd.Sync(nil); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := fd.WritePages(nil, 0, 2, pageOf(0x88, 2)); err != nil {
		t.Fatalf("write: %v", err)
	}
	fd.CrashNow()
	img := fd.CrashImage()
	for off := 0; off < 2*DefaultPageSize; off += DefaultSectorSize {
		if img[off] != 0x77 && img[off] != 0x88 {
			t.Fatalf("sector at %d holds %#x, want synced old (0x77) or unsynced new (0x88)", off, img[off])
		}
	}
}

func TestFaultDevicePartialVec(t *testing.T) {
	// Crash armed on a 3-segment WritePagesVec: a prefix of segments lands
	// (in order), the rest don't; the torn segment tears on a sector.
	fd, _ := newFaultPair(t, 32, FaultConfig{Seed: 5, CrashOp: 1})
	if err := fd.Sync(nil); err != nil { // op 0
		t.Fatalf("sync: %v", err)
	}
	segs := []Seg{
		{PID: 0, N: 2, Buf: pageOf(0x01, 2)},
		{PID: 8, N: 2, Buf: pageOf(0x02, 2)},
		{PID: 16, N: 2, Buf: pageOf(0x03, 2)},
	}
	if err := fd.WritePagesVec(nil, segs); !errors.Is(err, ErrCrashed) { // op 1: armed
		t.Fatalf("armed vec err = %v, want ErrCrashed", err)
	}
	img := fd.CrashImage()
	// Each segment must be either fully old (0x00), fully new, or — for at
	// most one segment — a sector prefix of new.
	tornSegs := 0
	prevLanded := true
	for i, s := range segs {
		off := int(s.PID) * DefaultPageSize
		n := s.N * DefaultPageSize
		cut := 0
		for cut < n && img[off+cut] == byte(i+1) {
			cut++
		}
		for j := cut; j < n; j++ {
			if img[off+j] != 0 {
				t.Fatalf("seg %d byte %d = %#x, want zero past tear", i, j, img[off+j])
			}
		}
		switch {
		case cut == n: // fully landed
			if !prevLanded {
				t.Fatalf("seg %d landed after a torn/missing segment", i)
			}
		case cut == 0:
			prevLanded = false
		default:
			if cut%DefaultSectorSize != 0 {
				t.Fatalf("seg %d torn at %d, not sector aligned", i, cut)
			}
			tornSegs++
			prevLanded = false
		}
	}
	if tornSegs > 1 {
		t.Fatalf("%d torn segments, want at most 1", tornSegs)
	}
}

func TestFaultDeviceInjectedErrors(t *testing.T) {
	fd, _ := newFaultPair(t, 16, FaultConfig{Seed: 1, CrashOp: -1})
	fd.FailWriteOp(0, nil)
	if err := fd.WritePages(nil, 0, 1, pageOf(1, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write err = %v, want ErrInjected", err)
	}
	// The failed write consumed op index 0 but landed nothing.
	got := make([]byte, DefaultPageSize)
	if err := fd.ReadPages(nil, 0, 1, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got[0] != 0 {
		t.Fatal("failed write landed data")
	}
	fd.FailReadOp(1, nil)
	if err := fd.ReadPages(nil, 0, 1, got); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
	// Next ops succeed.
	if err := fd.WritePages(nil, 0, 1, pageOf(2, 1)); err != nil {
		t.Fatalf("write after injection: %v", err)
	}
	if err := fd.ReadPages(nil, 0, 1, got); err != nil {
		t.Fatalf("read after injection: %v", err)
	}
	if got[0] != 2 {
		t.Fatal("write after injection did not land")
	}
}

func TestFaultDeviceRot(t *testing.T) {
	fd, _ := newFaultPair(t, 16, FaultConfig{Seed: 1, CrashOp: -1})
	if err := fd.WritePages(nil, 2, 1, pageOf(0x0f, 1)); err != nil {
		t.Fatalf("write: %v", err)
	}
	fd.RotSector(2, 1, 0xf0)
	got := make([]byte, DefaultPageSize)
	if err := fd.ReadPages(nil, 2, 1, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := 0; i < DefaultPageSize; i++ {
		want := byte(0x0f)
		if i >= DefaultSectorSize && i < 2*DefaultSectorSize {
			want = 0x0f ^ 0xf0
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
	// Vectored reads see the same rot.
	if err := fd.ReadPagesVec(nil, []Seg{{PID: 2, N: 1, Buf: got}}); err != nil {
		t.Fatalf("vec read: %v", err)
	}
	if got[DefaultSectorSize] != 0x0f^0xf0 {
		t.Fatal("vec read missed rot")
	}
}

func TestFaultDeviceOpHashDeterminism(t *testing.T) {
	drive := func() *FaultDevice {
		fd, _ := newFaultPair(t, 16, FaultConfig{Seed: 2, CrashOp: -1, Record: true})
		fd.WritePages(nil, 0, 1, pageOf(1, 1))
		fd.WritePagesVec(nil, []Seg{{PID: 2, N: 1, Buf: pageOf(2, 1)}, {PID: 4, N: 2, Buf: pageOf(3, 2)}})
		fd.Sync(nil)
		return fd
	}
	a, b := drive(), drive()
	if a.OpHash() != b.OpHash() {
		t.Fatal("identical op sequences hash differently")
	}
	ha, hb := a.OpHashes(), b.OpHashes()
	if len(ha) != 4 || len(hb) != 4 { // initial + 3 ops
		t.Fatalf("hash chain lengths %d/%d, want 4", len(ha), len(hb))
	}
	// A different sequence must diverge.
	fd, _ := newFaultPair(t, 16, FaultConfig{Seed: 2, CrashOp: -1})
	fd.WritePages(nil, 1, 1, pageOf(1, 1)) // different PID
	if fd.OpHash() == a.OpHashes()[1] {
		t.Fatal("different op hashed identically")
	}
}

// TestTakeCrashImage: the crash image becomes a device's storage without
// a copy, and the fault device gives it up.
func TestTakeCrashImage(t *testing.T) {
	fd, _ := newFaultPair(t, 8, FaultConfig{Seed: 1, CrashOp: -1})
	if fd.TakeCrashImage(nil) != nil {
		t.Fatal("device handed over an image before crashing")
	}
	if err := fd.WritePages(nil, 2, 1, pageOf(0x42, 1)); err != nil {
		t.Fatal(err)
	}
	fd.CrashNow()
	img := fd.CrashImage()
	d := fd.TakeCrashImage(nil)
	got := make([]byte, DefaultPageSize)
	if err := d.ReadPages(nil, 2, 1, got); err != nil || got[0] != 0x42 {
		t.Fatalf("recovery device page 2 = %#x, %v; want the crash image's 0x42", got[0], err)
	}
	if err := d.WritePages(nil, 2, 1, pageOf(0x43, 1)); err != nil || img[2*DefaultPageSize] != 0x43 {
		t.Fatal("recovery device does not write the image in place")
	}
	if fd.CrashImage() != nil {
		t.Fatal("fault device kept the image it handed over")
	}
}

func TestNewMemDeviceFrom(t *testing.T) {
	img := make([]byte, 3*DefaultPageSize)
	for i := range img {
		img[i] = 0x42
	}
	d := NewMemDeviceFrom(DefaultPageSize, 8, nil, img)
	got := make([]byte, DefaultPageSize)
	if err := d.ReadPages(nil, 2, 1, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got[0] != 0x42 {
		t.Fatal("image not applied")
	}
	if err := d.ReadPages(nil, 5, 1, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got[0] != 0 {
		t.Fatal("pages past image not zeroed")
	}
}
