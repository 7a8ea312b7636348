package buffer

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// callLog wraps a device and records every command it receives, in order:
// "R10+6" is a ReadPages of 6 pages at PID 10, "VR[10+6 40+2]" one
// vectored read carrying two segments, "W"/"VW" the write counterparts.
type callLog struct {
	storage.Device
	mu    sync.Mutex
	calls []string
}

func (d *callLog) record(s string) {
	d.mu.Lock()
	d.calls = append(d.calls, s)
	d.mu.Unlock()
}

func (d *callLog) ReadPages(m *simtime.Meter, pid storage.PID, n int, buf []byte) error {
	d.record(fmt.Sprintf("R%d+%d", pid, n))
	return d.Device.ReadPages(m, pid, n, buf)
}

func (d *callLog) WritePages(m *simtime.Meter, pid storage.PID, n int, buf []byte) error {
	d.record(fmt.Sprintf("W%d+%d", pid, n))
	return d.Device.WritePages(m, pid, n, buf)
}

func segList(segs []storage.Seg) string {
	parts := make([]string, len(segs))
	for i, s := range segs {
		parts[i] = fmt.Sprintf("%d+%d", s.PID, s.N)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func (d *callLog) ReadPagesVec(m *simtime.Meter, segs []storage.Seg) error {
	d.record("VR" + segList(segs))
	return d.Device.ReadPagesVec(m, segs)
}

func (d *callLog) WritePagesVec(m *simtime.Meter, segs []storage.Seg) error {
	d.record("VW" + segList(segs))
	return d.Device.WritePagesVec(m, segs)
}

// ioExpect is the exact device and pool traffic of one operation.
type ioExpect struct {
	calls []string
	dev   storage.StatsSnapshot
	pool  StatsSnapshot // LockWaitNs is wall-clock and not compared
}

// TestPoolIOPattern pins the device commands each frame layout issues. The
// contiguous layout (NewVMPool) moves an extent with one command and
// coalesces device- and slab-adjacent misses; the scattered layout
// (NewHTPool, the Our.ht baseline) issues one command per page, and both
// write a dirty range back as one vectored submission. Figure outputs are
// too noisy to guard that character, so the commands themselves are
// asserted. Every row runs twice: on the bare device ("direct") and behind
// the engine's queue-depth gate ("queue"), which must pass each command
// through unchanged.
func TestPoolIOPattern(t *testing.T) {
	type op struct {
		name string
		// setup prepares the pool; its traffic is not counted. run is the
		// measured operation.
		setup func(t *testing.T, p Pool)
		run   func(t *testing.T, p Pool)
		// want is keyed by layout.
		want map[string]ioExpect
	}
	release := func(fs ...*Frame) {
		for _, f := range fs {
			f.Release()
		}
	}
	var pinned *Frame // the eviction case's non-evictable extent
	ops := []op{
		{
			name: "fix-miss-4",
			run: func(t *testing.T, p Pool) {
				f, err := p.FixExtent(nil, 8, 4)
				if err != nil {
					t.Fatal(err)
				}
				release(f)
			},
			want: map[string]ioExpect{
				"vmcache": {
					calls: []string{"R8+4"},
					dev:   storage.StatsSnapshot{ReadOps: 1, BytesRead: 4 * ps},
					pool:  StatsSnapshot{Misses: 1},
				},
				"ht": {
					calls: []string{"R8+1", "R9+1", "R10+1", "R11+1"},
					dev:   storage.StatsSnapshot{ReadOps: 4, BytesRead: 4 * ps},
					pool:  StatsSnapshot{Misses: 1},
				},
			},
		},
		{
			name: "fix-batch-3-adjacent-1-apart",
			run: func(t *testing.T, p Pool) {
				fs, err := p.FixExtents(nil, []ExtentSpec{
					{PID: 10, NPages: 2}, {PID: 12, NPages: 3}, {PID: 15, NPages: 1}, {PID: 40, NPages: 2},
				})
				if err != nil {
					t.Fatal(err)
				}
				release(fs...)
			},
			want: map[string]ioExpect{
				"vmcache": {
					calls: []string{"VR[10+6 40+2]"},
					dev:   storage.StatsSnapshot{ReadOps: 2, BytesRead: 8 * ps, VecReads: 1, VecReadSegs: 2},
					pool:  StatsSnapshot{Misses: 4, FixBatches: 1, FixBatchPages: 8, ReadVecSegments: 2},
				},
				"ht": {
					calls: []string{"VR[10+1 11+1 12+1 13+1 14+1 15+1 40+1 41+1]"},
					dev:   storage.StatsSnapshot{ReadOps: 8, BytesRead: 8 * ps, VecReads: 1, VecReadSegs: 8},
					pool:  StatsSnapshot{Misses: 4, FixBatches: 1, FixBatchPages: 8, ReadVecSegments: 8},
				},
			},
		},
		{
			// A prefix fix loads only its pages, so the loaded prefix of
			// extent 10 is not device-adjacent to extent 14.
			name: "fix-batch-prefix-2-of-4",
			run: func(t *testing.T, p Pool) {
				fs, err := p.FixExtents(nil, []ExtentSpec{{PID: 10, NPages: 4, Used: 2}, {PID: 14, NPages: 2}})
				if err != nil {
					t.Fatal(err)
				}
				if fs[0].NPages != 2 {
					t.Errorf("prefix frame holds %d pages, want 2", fs[0].NPages)
				}
				release(fs...)
			},
			want: map[string]ioExpect{
				"vmcache": {
					calls: []string{"VR[10+2 14+2]"},
					dev:   storage.StatsSnapshot{ReadOps: 2, BytesRead: 4 * ps, VecReads: 1, VecReadSegs: 2},
					pool:  StatsSnapshot{Misses: 2, FixBatches: 1, FixBatchPages: 4, ReadVecSegments: 2},
				},
				"ht": {
					calls: []string{"VR[10+1 11+1 14+1 15+1]"},
					dev:   storage.StatsSnapshot{ReadOps: 4, BytesRead: 4 * ps, VecReads: 1, VecReadSegs: 4},
					pool:  StatsSnapshot{Misses: 2, FixBatches: 1, FixBatchPages: 4, ReadVecSegments: 4},
				},
			},
		},
		{
			// A full fix of an extent resident as a prefix drops the
			// prefix and loads the whole extent once.
			name: "fix-full-upgrades-prefix",
			setup: func(t *testing.T, p Pool) {
				fs, err := p.FixExtents(nil, []ExtentSpec{{PID: 10, NPages: 4, Used: 2}})
				if err != nil {
					t.Fatal(err)
				}
				release(fs...)
			},
			run: func(t *testing.T, p Pool) {
				f, err := p.FixExtent(nil, 10, 4)
				if err != nil {
					t.Fatal(err)
				}
				release(f)
			},
			want: map[string]ioExpect{
				"vmcache": {
					calls: []string{"R10+4"},
					dev:   storage.StatsSnapshot{ReadOps: 1, BytesRead: 4 * ps},
					pool:  StatsSnapshot{Misses: 1, Upgrades: 1},
				},
				"ht": {
					calls: []string{"R10+1", "R11+1", "R12+1", "R13+1"},
					dev:   storage.StatsSnapshot{ReadOps: 4, BytesRead: 4 * ps},
					pool:  StatsSnapshot{Misses: 1, Upgrades: 1},
				},
			},
		},
		{
			name: "create-partial-write-flush",
			run: func(t *testing.T, p Pool) {
				f, err := p.CreateExtent(nil, 20, 4)
				if err != nil {
					t.Fatal(err)
				}
				// Touches pages 1 and 2 only.
				f.WriteAt(make([]byte, ps), ps+10)
				if err := p.FlushExtent(nil, f); err != nil {
					t.Fatal(err)
				}
				release(f)
			},
			want: map[string]ioExpect{
				"vmcache": {
					calls: []string{"VW[21+2]"},
					dev:   storage.StatsSnapshot{WriteOps: 1, BytesWritten: 2 * ps, VecWrites: 1, VecWriteSegs: 1},
					pool:  StatsSnapshot{Misses: 1, Writebacks: 1},
				},
				"ht": {
					calls: []string{"VW[21+1 22+1]"},
					dev:   storage.StatsSnapshot{WriteOps: 2, BytesWritten: 2 * ps, VecWrites: 1, VecWriteSegs: 2},
					pool:  StatsSnapshot{Misses: 1, Writebacks: 1},
				},
			},
		},
		{
			// An 8-page pool holds a dirty unpinned extent and a pinned
			// one; fixing a third extent must write the dirty one back.
			name: "evict-dirty-victim",
			setup: func(t *testing.T, p Pool) {
				f, err := p.FixExtent(nil, 0, 4)
				if err != nil {
					t.Fatal(err)
				}
				f.WriteAt([]byte{1, 2, 3}, ps+5) // dirties page 1 only
				f.WriteAt([]byte{4}, 2*ps)       // and page 2
				release(f)
				if pinned, err = p.FixExtent(nil, 8, 4); err != nil {
					t.Fatal(err)
				}
			},
			run: func(t *testing.T, p Pool) {
				f, err := p.FixExtent(nil, 16, 4)
				if err != nil {
					t.Fatal(err)
				}
				release(f, pinned)
			},
			want: map[string]ioExpect{
				"vmcache": {
					calls: []string{"VW[1+2]", "R16+4"},
					dev: storage.StatsSnapshot{ReadOps: 1, WriteOps: 1, BytesRead: 4 * ps, BytesWritten: 2 * ps,
						VecWrites: 1, VecWriteSegs: 1},
					pool: StatsSnapshot{Misses: 1, Evictions: 1, Writebacks: 1},
				},
				"ht": {
					calls: []string{"VW[1+1 2+1]", "R16+1", "R17+1", "R18+1", "R19+1"},
					dev: storage.StatsSnapshot{ReadOps: 4, WriteOps: 2, BytesRead: 4 * ps, BytesWritten: 2 * ps,
						VecWrites: 1, VecWriteSegs: 2},
					pool: StatsSnapshot{Misses: 1, Evictions: 1, Writebacks: 1},
				},
			},
		},
	}
	layouts := map[string]func(storage.Device, int) Pool{
		"vmcache": func(d storage.Device, n int) Pool { return NewVMPool(d, n) },
		"ht":      func(d storage.Device, n int) Pool { return NewHTPool(d, n) },
	}
	for _, o := range ops {
		for layout, mk := range layouts {
			for _, gated := range []bool{false, true} {
				name := layout + "/direct"
				if gated {
					name = layout + "/queue"
				}
				t.Run(o.name+"/"+name, func(t *testing.T) {
					mem := newDev(256)
					dev := &callLog{Device: mem}
					var pdev storage.Device = dev
					if gated {
						pdev = storage.NewSubQueue(dev, 4).Device()
					}
					p := mk(pdev, 8)
					if o.setup != nil {
						o.setup(t, p)
					}
					mem.Stats().Reset()
					dev.calls = nil
					before := p.Stats().Snapshot()

					o.run(t, p)

					want := o.want[layout]
					if !reflect.DeepEqual(dev.calls, want.calls) {
						t.Errorf("device calls = %q, want %q", dev.calls, want.calls)
					}
					if got := mem.Stats().Snapshot(); got != want.dev {
						t.Errorf("device stats = %+v, want %+v", got, want.dev)
					}
					after := p.Stats().Snapshot()
					got := StatsSnapshot{
						Hits:            after.Hits - before.Hits,
						Misses:          after.Misses - before.Misses,
						Evictions:       after.Evictions - before.Evictions,
						Writebacks:      after.Writebacks - before.Writebacks,
						FixBatches:      after.FixBatches - before.FixBatches,
						FixBatchPages:   after.FixBatchPages - before.FixBatchPages,
						ReadVecSegments: after.ReadVecSegments - before.ReadVecSegments,
						Coalesces:       after.Coalesces - before.Coalesces,
						Upgrades:        after.Upgrades - before.Upgrades,
					}
					if got != want.pool {
						t.Errorf("pool stats = %+v, want %+v", got, want.pool)
					}
				})
			}
		}
	}
}
