// Package storage provides the page-granular block device every engine and
// file-system model in this reproduction runs on.
//
// The paper evaluates on a Samsung 980 Pro NVMe SSD. Here the device is
// simulated: data lives in memory (MemDevice) or in a backing file
// (FileDevice), and the time real hardware would have taken is charged to a
// simtime.Meter through a DeviceCostModel. Because every competitor shares
// the same device and cost model, the relative results — write
// amplification, I/O counts, sequential-vs-random penalties — translate to
// the same orderings the paper reports.
package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"blobdb/internal/simtime"
)

// PID identifies a page on the device. Pages are numbered from zero.
type PID uint64

// InvalidPID is a sentinel for "no page".
const InvalidPID = PID(^uint64(0))

// DefaultPageSize is the page size used throughout the reproduction,
// matching the paper's 4 KB assumption (§III).
const DefaultPageSize = 4096

// ErrOutOfSpace is returned when an access goes past the end of the device.
var ErrOutOfSpace = errors.New("storage: out of device space")

// ErrDeviceLocked reports opening a device file that another open
// FileDevice (in any process) holds.
var ErrDeviceLocked = errors.New("storage: device file is locked by another open device")

// Stats counts device traffic. All fields are updated atomically; read them
// with the corresponding methods or Snapshot.
type Stats struct {
	readOps      atomic.Int64
	writeOps     atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	syncs        atomic.Int64
	vecReads     atomic.Int64 // vectored read submissions (one per batch)
	vecReadSegs  atomic.Int64 // segments carried by those submissions
	vecWrites    atomic.Int64
	vecWriteSegs atomic.Int64
}

// StatsSnapshot is a point-in-time copy of device counters.
type StatsSnapshot struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
	Syncs        int64
	VecReads     int64
	VecReadSegs  int64
	VecWrites    int64
	VecWriteSegs int64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		ReadOps:      s.readOps.Load(),
		WriteOps:     s.writeOps.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Syncs:        s.syncs.Load(),
		VecReads:     s.vecReads.Load(),
		VecReadSegs:  s.vecReadSegs.Load(),
		VecWrites:    s.vecWrites.Load(),
		VecWriteSegs: s.vecWriteSegs.Load(),
	}
}

// BytesWritten reports total bytes written to the device. The single-flush
// property (§III-C) is asserted against this counter in tests.
func (s *Stats) BytesWritten() int64 { return s.bytesWritten.Load() }

// BytesRead reports total bytes read from the device.
func (s *Stats) BytesRead() int64 { return s.bytesRead.Load() }

// WriteOps reports the number of write commands issued.
func (s *Stats) WriteOps() int64 { return s.writeOps.Load() }

// ReadOps reports the number of read commands issued.
func (s *Stats) ReadOps() int64 { return s.readOps.Load() }

// Syncs reports the number of flush commands issued.
func (s *Stats) Syncs() int64 { return s.syncs.Load() }

// VecReads reports the number of vectored read submissions. Each batch
// counts once however many segments it carries — the §III-D "one vectored
// I/O per BLOB read" is asserted against this counter in tests.
func (s *Stats) VecReads() int64 { return s.vecReads.Load() }

// VecReadSegs reports the total segments carried by vectored reads.
func (s *Stats) VecReadSegs() int64 { return s.vecReadSegs.Load() }

// VecWrites reports the number of vectored write submissions.
func (s *Stats) VecWrites() int64 { return s.vecWrites.Load() }

// VecWriteSegs reports the total segments carried by vectored writes.
func (s *Stats) VecWriteSegs() int64 { return s.vecWriteSegs.Load() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.readOps.Store(0)
	s.writeOps.Store(0)
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
	s.syncs.Store(0)
	s.vecReads.Store(0)
	s.vecReadSegs.Store(0)
	s.vecWrites.Store(0)
	s.vecWriteSegs.Store(0)
}

// Device is a page-granular block device.
//
// ReadPages and WritePages transfer n pages starting at pid;
// ReadPagesVec and WritePagesVec transfer a list of segments as one
// submission. They charge the device cost model to the supplied meter
// (which may be nil) and update the device Stats. Every command runs on
// the caller's goroutine. Implementations are safe for concurrent use.
type Device interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// NumPages returns the device capacity in pages.
	NumPages() uint64
	// ReadPages reads n pages starting at pid into buf, which must be at
	// least n*PageSize() bytes.
	ReadPages(m *simtime.Meter, pid PID, n int, buf []byte) error
	// WritePages writes n pages starting at pid from buf.
	WritePages(m *simtime.Meter, pid PID, n int, buf []byte) error
	// ReadPagesVec reads every segment as one vectored submission
	// (preadv/io_uring-style): the batch pays one command latency plus the
	// bandwidth of all its bytes and counts once in Stats.VecReads, while
	// ReadOps still counts one op per segment. Each Buf is at least
	// N*PageSize() bytes.
	ReadPagesVec(m *simtime.Meter, segs []Seg) error
	// WritePagesVec is the write counterpart of ReadPagesVec.
	WritePagesVec(m *simtime.Meter, segs []Seg) error
	// Sync flushes the device write cache.
	Sync(m *simtime.Meter) error
	// Stats exposes traffic counters.
	Stats() *Stats
}

// MemDevice is an in-memory Device with simulated timing.
type MemDevice struct {
	pageSize int
	numPages uint64
	data     []byte
	cost     *simtime.DeviceCostModel
	stats    Stats

	// lastEnd tracks the end offset of the most recent command per device,
	// approximating the sequential-vs-random distinction of real flash.
	lastEnd atomic.Uint64
}

// NewMemDevice creates an in-memory device of numPages pages. cost may be
// nil, in which case accesses charge no virtual time (useful for pure
// in-memory experiments such as Figures 5 and 10).
func NewMemDevice(pageSize int, numPages uint64, cost *simtime.DeviceCostModel) *MemDevice {
	if pageSize <= 0 {
		panic("storage: page size must be positive")
	}
	return &MemDevice{
		pageSize: pageSize,
		numPages: numPages,
		data:     make([]byte, uint64(pageSize)*numPages),
		cost:     cost,
	}
}

// PageSize implements Device.
func (d *MemDevice) PageSize() int { return d.pageSize }

// NumPages implements Device.
func (d *MemDevice) NumPages() uint64 { return d.numPages }

// Stats implements Device.
func (d *MemDevice) Stats() *Stats { return &d.stats }

func (d *MemDevice) checkRange(pid PID, n int) error {
	if n < 0 || uint64(pid) >= d.numPages || uint64(n) > d.numPages-uint64(pid) {
		return fmt.Errorf("storage: pages [%d,%d+%d) out of device range %d: %w",
			pid, pid, n, d.numPages, ErrOutOfSpace)
	}
	return nil
}

// ReadPages implements Device.
func (d *MemDevice) ReadPages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	if err := d.checkRange(pid, n); err != nil {
		return err
	}
	nbytes := n * d.pageSize
	if len(buf) < nbytes {
		return fmt.Errorf("storage: read buffer %d bytes, need %d", len(buf), nbytes)
	}
	off := uint64(pid) * uint64(d.pageSize)
	copy(buf[:nbytes], d.data[off:])
	seq := d.lastEnd.Swap(off+uint64(nbytes)) == off
	d.stats.readOps.Add(1)
	d.stats.bytesRead.Add(int64(nbytes))
	m.Charge(d.cost.ReadCost(nbytes, seq))
	return nil
}

// WritePages implements Device.
func (d *MemDevice) WritePages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	if err := d.checkRange(pid, n); err != nil {
		return err
	}
	nbytes := n * d.pageSize
	if len(buf) < nbytes {
		return fmt.Errorf("storage: write buffer %d bytes, need %d", len(buf), nbytes)
	}
	off := uint64(pid) * uint64(d.pageSize)
	copy(d.data[off:], buf[:nbytes])
	seq := d.lastEnd.Swap(off+uint64(nbytes)) == off
	d.stats.writeOps.Add(1)
	d.stats.bytesWritten.Add(int64(nbytes))
	m.Charge(d.cost.WriteCost(nbytes, seq))
	return nil
}

// Sync implements Device.
func (d *MemDevice) Sync(m *simtime.Meter) error {
	d.stats.syncs.Add(1)
	m.Charge(d.cost.SyncCost())
	return nil
}

// ReadPagesVec implements Device.
func (d *MemDevice) ReadPagesVec(m *simtime.Meter, segs []Seg) error {
	for _, s := range segs {
		if err := d.checkRange(s.PID, s.N); err != nil {
			return err
		}
		if len(s.Buf) < s.N*d.pageSize {
			return fmt.Errorf("storage: read buffer %d bytes, need %d", len(s.Buf), s.N*d.pageSize)
		}
	}
	total := 0
	for _, s := range segs {
		nbytes := s.N * d.pageSize
		off := uint64(s.PID) * uint64(d.pageSize)
		copy(s.Buf[:nbytes], d.data[off:])
		d.lastEnd.Store(off + uint64(nbytes))
		total += nbytes
	}
	d.stats.readOps.Add(int64(len(segs)))
	d.stats.bytesRead.Add(int64(total))
	d.stats.vecReads.Add(1)
	d.stats.vecReadSegs.Add(int64(len(segs)))
	m.Charge(vecCost(d.cost, segs, false))
	return nil
}

// WritePagesVec implements Device.
func (d *MemDevice) WritePagesVec(m *simtime.Meter, segs []Seg) error {
	for _, s := range segs {
		if err := d.checkRange(s.PID, s.N); err != nil {
			return err
		}
		if len(s.Buf) < s.N*d.pageSize {
			return fmt.Errorf("storage: write buffer %d bytes, need %d", len(s.Buf), s.N*d.pageSize)
		}
	}
	total := 0
	for _, s := range segs {
		nbytes := s.N * d.pageSize
		off := uint64(s.PID) * uint64(d.pageSize)
		copy(d.data[off:], s.Buf[:nbytes])
		d.lastEnd.Store(off + uint64(nbytes))
		total += nbytes
	}
	d.stats.writeOps.Add(int64(len(segs)))
	d.stats.bytesWritten.Add(int64(total))
	d.stats.vecWrites.Add(1)
	d.stats.vecWriteSegs.Add(int64(len(segs)))
	m.Charge(vecCost(d.cost, segs, true))
	return nil
}

// FileDevice is a Device backed by an operating-system file, for runs that
// want real persistence underneath the simulation.
type FileDevice struct {
	pageSize int
	numPages uint64
	f        *os.File
	cost     *simtime.DeviceCostModel
	stats    Stats
	mu       sync.Mutex // serializes Truncate-extension; reads/writes use pread/pwrite
	lastEnd  atomic.Uint64
}

// NewFileDevice creates or truncates path as a device of numPages pages.
func NewFileDevice(path string, pageSize int, numPages uint64, cost *simtime.DeviceCostModel) (*FileDevice, error) {
	return openFileDevice(path, pageSize, numPages, cost, true)
}

// OpenFileDevice opens path as a device of numPages pages WITHOUT
// truncating existing content (creating the file when absent). Long-running
// servers use this to operate on a database image in place: after a crash
// or restart the same file is reopened and core.Recover replays it.
func OpenFileDevice(path string, pageSize int, numPages uint64, cost *simtime.DeviceCostModel) (*FileDevice, error) {
	return openFileDevice(path, pageSize, numPages, cost, false)
}

func openFileDevice(path string, pageSize int, numPages uint64, cost *simtime.DeviceCostModel, truncate bool) (*FileDevice, error) {
	if pageSize <= 0 {
		return nil, errors.New("storage: page size must be positive")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open device file: %w", err)
	}
	// One writer per image: the lock is taken before anything is
	// truncated, and Close (or the process's exit) releases it.
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	if truncate {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: truncate device file: %w", err)
		}
	}
	// Sizing an already-sized file is a no-op, so reopened images keep
	// their pages.
	if err := f.Truncate(int64(pageSize) * int64(numPages)); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: size device file: %w", err)
	}
	return &FileDevice{pageSize: pageSize, numPages: numPages, f: f, cost: cost}, nil
}

// PageSize implements Device.
func (d *FileDevice) PageSize() int { return d.pageSize }

// NumPages implements Device.
func (d *FileDevice) NumPages() uint64 { return d.numPages }

// Stats implements Device.
func (d *FileDevice) Stats() *Stats { return &d.stats }

// Close releases the backing file and its lock.
func (d *FileDevice) Close() error { return d.f.Close() }

func (d *FileDevice) checkRange(pid PID, n int) error {
	if n < 0 || uint64(pid) >= d.numPages || uint64(n) > d.numPages-uint64(pid) {
		return fmt.Errorf("storage: pages [%d,%d+%d) out of device range %d: %w",
			pid, pid, n, d.numPages, ErrOutOfSpace)
	}
	return nil
}

// ReadPages implements Device.
func (d *FileDevice) ReadPages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	if err := d.checkRange(pid, n); err != nil {
		return err
	}
	nbytes := n * d.pageSize
	off := int64(pid) * int64(d.pageSize)
	if _, err := d.f.ReadAt(buf[:nbytes], off); err != nil {
		return fmt.Errorf("storage: read pages: %w", err)
	}
	seq := d.lastEnd.Swap(uint64(off)+uint64(nbytes)) == uint64(off)
	d.stats.readOps.Add(1)
	d.stats.bytesRead.Add(int64(nbytes))
	m.Charge(d.cost.ReadCost(nbytes, seq))
	return nil
}

// WritePages implements Device.
func (d *FileDevice) WritePages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	if err := d.checkRange(pid, n); err != nil {
		return err
	}
	nbytes := n * d.pageSize
	off := int64(pid) * int64(d.pageSize)
	if _, err := d.f.WriteAt(buf[:nbytes], off); err != nil {
		return fmt.Errorf("storage: write pages: %w", err)
	}
	seq := d.lastEnd.Swap(uint64(off)+uint64(nbytes)) == uint64(off)
	d.stats.writeOps.Add(1)
	d.stats.bytesWritten.Add(int64(nbytes))
	m.Charge(d.cost.WriteCost(nbytes, seq))
	return nil
}

// Sync implements Device.
func (d *FileDevice) Sync(m *simtime.Meter) error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	d.stats.syncs.Add(1)
	m.Charge(d.cost.SyncCost())
	return nil
}

// ReadPagesVec implements Device.
func (d *FileDevice) ReadPagesVec(m *simtime.Meter, segs []Seg) error {
	total := 0
	for _, s := range segs {
		if err := d.checkRange(s.PID, s.N); err != nil {
			return err
		}
		nbytes := s.N * d.pageSize
		off := int64(s.PID) * int64(d.pageSize)
		if _, err := d.f.ReadAt(s.Buf[:nbytes], off); err != nil {
			return fmt.Errorf("storage: read pages: %w", err)
		}
		d.lastEnd.Store(uint64(off) + uint64(nbytes))
		total += nbytes
	}
	d.stats.readOps.Add(int64(len(segs)))
	d.stats.bytesRead.Add(int64(total))
	d.stats.vecReads.Add(1)
	d.stats.vecReadSegs.Add(int64(len(segs)))
	m.Charge(vecCost(d.cost, segs, false))
	return nil
}

// WritePagesVec implements Device.
func (d *FileDevice) WritePagesVec(m *simtime.Meter, segs []Seg) error {
	total := 0
	for _, s := range segs {
		if err := d.checkRange(s.PID, s.N); err != nil {
			return err
		}
		nbytes := s.N * d.pageSize
		off := int64(s.PID) * int64(d.pageSize)
		if _, err := d.f.WriteAt(s.Buf[:nbytes], off); err != nil {
			return fmt.Errorf("storage: write pages: %w", err)
		}
		d.lastEnd.Store(uint64(off) + uint64(nbytes))
		total += nbytes
	}
	d.stats.writeOps.Add(int64(len(segs)))
	d.stats.bytesWritten.Add(int64(total))
	d.stats.vecWrites.Add(1)
	d.stats.vecWriteSegs.Add(int64(len(segs)))
	m.Charge(vecCost(d.cost, segs, true))
	return nil
}
