package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"blobdb/internal/simtime"
)

// ErrCrashed is returned by every operation on a FaultDevice after its
// armed crash point has fired (or CrashNow was called). The process "after
// the crash" keeps running — goroutines drain, commits fail — but the
// device image is frozen; recovery operates on CrashImage.
var ErrCrashed = errors.New("storage: device crashed (fault injection)")

// ErrInjected is the default error delivered by FailWriteOp/FailReadOp.
var ErrInjected = errors.New("storage: injected I/O error")

// TearMode selects how unsynced writes behave at a crash (what a real
// drive's volatile write cache may do with commands that were acknowledged
// but never covered by a flush).
type TearMode int

const (
	// TearOrdered models an ordered write cache: at the crash point every
	// unsynced write before the armed op has landed, and the armed op
	// itself lands as a prefix (first k segments, then first s sectors of
	// segment k+1). Sync barriers are ordering no-ops under this model —
	// it validates the harness against the most forgiving hardware.
	TearOrdered TearMode = iota
	// TearScramble models a reordering write cache: writes since the last
	// completed Sync survive sector-by-sector with probability 1/2 (drawn
	// deterministically from the seed), so a missing sync barrier becomes
	// observable as lost or interleaved sectors. The armed op still lands
	// as a prefix. This is the default exploration mode.
	TearScramble
)

func (m TearMode) String() string {
	switch m {
	case TearOrdered:
		return "ordered"
	case TearScramble:
		return "scramble"
	default:
		return fmt.Sprintf("TearMode(%d)", int(m))
	}
}

// ParseTearMode parses "ordered" or "scramble".
func ParseTearMode(s string) (TearMode, error) {
	switch s {
	case "ordered":
		return TearOrdered, nil
	case "scramble":
		return TearScramble, nil
	}
	return 0, fmt.Errorf("storage: unknown tear mode %q", s)
}

// DefaultSectorSize is the torn-write granularity: writes tear on 512-byte
// boundaries, matching the atomic unit drives actually guarantee (a 4 KB
// page write may land partially).
const DefaultSectorSize = 512

// FaultConfig configures a FaultDevice.
type FaultConfig struct {
	// Seed drives every probabilistic decision (tear offsets, scramble
	// survival). The same (Seed, CrashOp, op trace) always produces the
	// same crash image.
	Seed int64
	// CrashOp is the index of the mutating operation (write, vectored
	// write, or sync) at which the device crashes. Negative means never.
	CrashOp int
	// Mode selects the unsynced-write model. Default TearOrdered.
	Mode TearMode
	// SectorSize is the torn-write granularity (default DefaultSectorSize).
	// It must divide the page size.
	SectorSize int
	// Record keeps the rolling op-sequence hash after every mutating op so
	// a later replay can prove it followed the identical op sequence up to
	// its crash point.
	Record bool
}

// writeRec is one unsynced write: a copy of its bytes (caller buffers are
// reused) and of the bytes it overwrote, so a crash can roll it back.
type writeRec struct {
	off  int64
	data []byte
	old  []byte
}

// FaultDevice wraps a Device with deterministic fault injection: torn
// writes at sector granularity, partial vectored submissions (the first k
// segments of a WritePagesVec land), injected read/write errors, read
// bit-rot, and a crash that freezes exactly the image a real power loss
// would have left.
//
// The wrapped device always holds the *live* content (what the running
// engine reads back); FaultDevice keeps the unsynced write set with each
// write's before-image. A crash copies the live content once, rolls the
// unsynced writes back to the last-synced state, and replays whatever the
// tear model preserves of them.
//
// All methods are safe for concurrent use; every operation serializes on
// one mutex, which is fine for simulation workloads and guarantees the
// mutating-op index sequence is well defined.
type FaultDevice struct {
	mu    sync.Mutex
	inner Device
	cfg   FaultConfig
	rng   *rand.Rand

	pending []writeRec // unsynced writes, in submission order

	ops     int // mutating operations observed so far
	readOps int // read operations observed so far
	opHash  uint64
	hashes  []uint64 // Record mode: hashes[i] = opHash after i ops

	crashed bool
	image   []byte // crash image; nil until crashed

	failWrites map[int]error  // mutating-op index -> injected error
	failReads  map[int]error  // read-op index -> injected error
	rot        map[int64]byte // absolute sector index -> XOR mask on reads
}

// NewFaultDevice wraps inner; its current content is the durable image.
func NewFaultDevice(inner Device, cfg FaultConfig) (*FaultDevice, error) {
	if cfg.SectorSize == 0 {
		cfg.SectorSize = DefaultSectorSize
	}
	if cfg.SectorSize <= 0 || inner.PageSize()%cfg.SectorSize != 0 {
		return nil, fmt.Errorf("storage: sector size %d must divide page size %d",
			cfg.SectorSize, inner.PageSize())
	}
	d := &FaultDevice{
		inner:      inner,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		failWrites: map[int]error{},
		failReads:  map[int]error{},
		rot:        map[int64]byte{},
	}
	if cfg.Record {
		d.hashes = append(d.hashes, d.opHash)
	}
	return d, nil
}

// PageSize implements Device.
func (d *FaultDevice) PageSize() int { return d.inner.PageSize() }

// NumPages implements Device.
func (d *FaultDevice) NumPages() uint64 { return d.inner.NumPages() }

// Stats implements Device, forwarding the wrapped device's counters.
func (d *FaultDevice) Stats() *Stats { return d.inner.Stats() }

// Ops returns the number of mutating operations (writes, vectored writes,
// syncs) the device has accepted. Each is a candidate crash point.
func (d *FaultDevice) Ops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Crashed reports whether the crash point has fired.
func (d *FaultDevice) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// CrashImage returns the frozen post-crash device image, or nil if the
// device has not crashed. The slice is owned by the device; copy before
// mutating.
func (d *FaultDevice) CrashImage() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.image
}

// OpHash returns the rolling FNV-1a hash of the mutating-op sequence
// accepted so far: op kind, PID, and page count per segment. Two runs that
// agree on OpHash at the same op index performed the identical I/O
// schedule — the replay determinism guard.
func (d *FaultDevice) OpHash() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.opHash
}

// OpHashes returns, in Record mode, the rolling hash after each op index
// (index 0 = before any op). Nil when Record is off.
func (d *FaultDevice) OpHashes() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]uint64(nil), d.hashes...)
}

// FailWriteOp injects err (ErrInjected if nil) at mutating-op index op.
// The write does not land; the engine sees the error.
func (d *FaultDevice) FailWriteOp(op int, err error) {
	if err == nil {
		err = ErrInjected
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failWrites[op] = err
}

// FailReadOp injects err (ErrInjected if nil) at read-op index op.
func (d *FaultDevice) FailReadOp(op int, err error) {
	if err == nil {
		err = ErrInjected
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failReads[op] = err
}

// RotSector makes every future read of the given sector of page pid return
// its bytes XOR mask (mask 0 picks 0xff): silent media corruption that the
// recovery SHA-256 validation must catch. The stored data is untouched.
func (d *FaultDevice) RotSector(pid PID, sector int, mask byte) {
	if mask == 0 {
		mask = 0xff
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rot[d.sectorIndex(pid, sector)] = mask
}

func (d *FaultDevice) sectorIndex(pid PID, sector int) int64 {
	perPage := d.inner.PageSize() / d.cfg.SectorSize
	return int64(pid)*int64(perPage) + int64(sector)
}

// fnv-1a over op metadata.
func (d *FaultDevice) hashOp(kind byte, segs ...Seg) {
	const prime = 1099511628211
	h := d.opHash
	if h == 0 {
		h = 14695981039346656037
	}
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	mix(kind)
	for _, s := range segs {
		for i := 0; i < 8; i++ {
			mix(byte(uint64(s.PID) >> (8 * i)))
		}
		for i := 0; i < 4; i++ {
			mix(byte(uint32(s.N) >> (8 * i)))
		}
	}
	d.opHash = h
}

func (d *FaultDevice) finishOp() {
	d.ops++
	if d.cfg.Record {
		d.hashes = append(d.hashes, d.opHash)
	}
}

// armed reports whether the current mutating op is the crash point.
func (d *FaultDevice) armed() bool {
	return d.cfg.CrashOp >= 0 && d.ops == d.cfg.CrashOp
}

// ReadPages implements Device.
func (d *FaultDevice) ReadPages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	idx := d.readOps
	d.readOps++
	if err, ok := d.failReads[idx]; ok {
		delete(d.failReads, idx)
		return err
	}
	if err := d.inner.ReadPages(m, pid, n, buf); err != nil {
		return err
	}
	d.applyRot(pid, n, buf)
	return nil
}

// applyRot corrupts the read buffer for any rotted sector in [pid, pid+n).
func (d *FaultDevice) applyRot(pid PID, n int, buf []byte) {
	if len(d.rot) == 0 {
		return
	}
	ps := d.inner.PageSize()
	perPage := ps / d.cfg.SectorSize
	first := int64(pid) * int64(perPage)
	last := first + int64(n*perPage)
	for sec, mask := range d.rot {
		if sec < first || sec >= last {
			continue
		}
		off := (sec - first) * int64(d.cfg.SectorSize)
		for i := int64(0); i < int64(d.cfg.SectorSize) && off+i < int64(len(buf)); i++ {
			buf[off+i] ^= mask
		}
	}
}

// ReadPagesVec implements Device.
func (d *FaultDevice) ReadPagesVec(m *simtime.Meter, segs []Seg) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	idx := d.readOps
	d.readOps++
	if err, ok := d.failReads[idx]; ok {
		delete(d.failReads, idx)
		return err
	}
	if err := ReadVec(d.inner, m, segs); err != nil {
		return err
	}
	for _, s := range segs {
		d.applyRot(s.PID, s.N, s.Buf)
	}
	return nil
}

// WritePages implements Device.
func (d *FaultDevice) WritePages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	nbytes := n * d.inner.PageSize()
	if len(buf) < nbytes {
		return fmt.Errorf("storage: write buffer %d bytes, need %d", len(buf), nbytes)
	}
	return d.writeVecLocked(m, []Seg{{PID: pid, N: n, Buf: buf[:nbytes]}}, false)
}

// WritePagesVec implements Device: the whole batch is one mutating op,
// and a crash armed on it lands only the first k segments (plus a sector
// prefix of segment k+1).
func (d *FaultDevice) WritePagesVec(m *simtime.Meter, segs []Seg) error {
	return d.writeVecLocked(m, segs, true)
}

func (d *FaultDevice) writeVecLocked(m *simtime.Meter, segs []Seg, vec bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	kind := byte('w')
	if vec {
		kind = 'v'
	}
	d.hashOp(kind, segs...)
	idx := d.ops
	if err, ok := d.failWrites[idx]; ok {
		delete(d.failWrites, idx)
		d.finishOp()
		return err
	}
	if d.armed() {
		d.crashLocked(segs)
		d.finishOp()
		return ErrCrashed
	}
	ps := d.inner.PageSize()
	for _, s := range segs {
		nbytes := s.N * ps
		if len(s.Buf) < nbytes {
			return fmt.Errorf("storage: write buffer %d bytes, need %d", len(s.Buf), nbytes)
		}
		old := make([]byte, nbytes)
		if err := d.peek(s.PID, s.N, old); err != nil {
			return err
		}
		if err := d.inner.WritePages(m, s.PID, s.N, s.Buf[:nbytes]); err != nil {
			return err
		}
		d.pending = append(d.pending, writeRec{
			off:  int64(s.PID) * int64(ps),
			data: append([]byte(nil), s.Buf[:nbytes]...),
			old:  old,
		})
	}
	d.finishOp()
	return nil
}

// Sync implements Device. A crash armed on a sync means the flush never
// happened: everything since the previous sync stays at the mercy of the
// tear model.
func (d *FaultDevice) Sync(m *simtime.Meter) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	d.hashOp('s')
	if d.armed() {
		d.crashLocked(nil)
		d.finishOp()
		return ErrCrashed
	}
	d.pending = nil
	if err := d.inner.Sync(m); err != nil {
		return err
	}
	d.finishOp()
	return nil
}

// CrashNow crashes the device immediately (between ops): the image holds
// the durable state plus whatever the tear model preserves of the unsynced
// writes. No-op if already crashed.
func (d *FaultDevice) CrashNow() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.crashed {
		d.crashLocked(nil)
	}
}

// crashLocked materializes the crash image: the last-synced state, the
// unsynced write set filtered through the tear model, and — when the crash
// fired on a write — a prefix of the armed operation. The live content
// already holds every unsynced write (the ordered model's image), so it is
// copied once and only the scramble model rolls the writes back first.
func (d *FaultDevice) crashLocked(armedSegs []Seg) {
	img := make([]byte, int64(d.inner.PageSize())*int64(d.inner.NumPages()))
	if err := d.peek(0, int(d.inner.NumPages()), img); err != nil {
		panic(fmt.Sprintf("storage: snapshot crash image: %v", err))
	}
	sector := d.cfg.SectorSize
	if d.cfg.Mode == TearScramble {
		for i := len(d.pending) - 1; i >= 0; i-- {
			copy(img[d.pending[i].off:], d.pending[i].old)
		}
		for _, r := range d.pending {
			for off := 0; off < len(r.data); off += sector {
				if d.rng.Intn(2) == 0 {
					continue // this sector's command was lost in the cache
				}
				end := off + sector
				if end > len(r.data) {
					end = len(r.data)
				}
				copy(img[r.off+int64(off):], r.data[off:end])
			}
		}
	}
	if len(armedSegs) > 0 {
		ps := d.inner.PageSize()
		clamp := func(b []byte, n int) []byte {
			if n > len(b) {
				n = len(b)
			}
			return b[:n]
		}
		full := d.rng.Intn(len(armedSegs) + 1) // segments that land completely
		for i := 0; i < full; i++ {
			s := armedSegs[i]
			copy(img[int64(s.PID)*int64(ps):], clamp(s.Buf, s.N*ps))
		}
		if full < len(armedSegs) {
			s := armedSegs[full]
			sectors := s.N * ps / sector
			keep := d.rng.Intn(sectors + 1) // sector-granular tear
			copy(img[int64(s.PID)*int64(ps):], clamp(s.Buf, keep*sector))
		}
	}
	d.image = img
	d.pending = nil
	d.crashed = true
}

// peek copies the wrapped device's current pages [pid, pid+n) into buf
// without counting a device read: a write's before-image, or the crash
// snapshot.
func (d *FaultDevice) peek(pid PID, n int, buf []byte) error {
	if m, ok := d.inner.(*MemDevice); ok {
		copy(buf[:n*m.pageSize], m.data[int64(pid)*int64(m.pageSize):])
		return nil
	}
	return d.inner.ReadPages(nil, pid, n, buf)
}

// TakeCrashImage hands the frozen crash image over as the storage of an
// in-memory device, without a copy — the recovery side of a crash — or
// returns nil if the device has not crashed. The device gives the image
// up: CrashImage returns nil afterwards.
func (d *FaultDevice) TakeCrashImage(cost *simtime.DeviceCostModel) *MemDevice {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.image == nil {
		return nil
	}
	m := &MemDevice{pageSize: d.inner.PageSize(), numPages: d.inner.NumPages(), data: d.image, cost: cost}
	d.image = nil
	return m
}

// NewMemDeviceFrom creates an in-memory device initialized from a copy of
// image (shorter images are zero-extended).
func NewMemDeviceFrom(pageSize int, numPages uint64, cost *simtime.DeviceCostModel, image []byte) *MemDevice {
	d := NewMemDevice(pageSize, numPages, cost)
	copy(d.data, image)
	return d
}
