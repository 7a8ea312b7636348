// Package crashsim drives the real commit pipeline — group-commit
// batching, the WAL sync boundary, the background extent flush of the
// streaming blob writer, eviction under pool pressure — through a
// deterministic, enumerable space of crash schedules and checks every
// recovered image against the reference model (refmodel).
//
// A schedule is the pair (trace seed, crash-point index): the trace seed
// fully determines the operation sequence (trace.go), and the crash point
// selects the mutating device operation at which a storage.FaultDevice
// freezes the durable image. Recovery runs core.RecoverDevice on that
// image and the result must satisfy the §III-C contract — committed blobs
// byte-identical, uncommitted and torn blobs absent or rolled back, every
// SHA-256 mismatch resolved by failing the transaction. Any violation is
// replayable from the printed (seed, crash point) pair.
package crashsim

import (
	"bytes"
	"fmt"

	"blobdb/internal/blob"
	"blobdb/internal/buffer"
	"blobdb/internal/core"
	"blobdb/internal/crashsim/refmodel"
	"blobdb/internal/storage"
)

// Device geometry, chosen small so hundreds of schedules run per second:
// 8 MB device, 1 MB WAL, 512 KB checkpoint area, and a buffer pool small
// enough that long traces evict.
const (
	simPageSize  = storage.DefaultPageSize
	simDevPages  = 2048
	simLogPages  = 256
	simCkptPages = 128
	// poolNormal leaves headroom; poolSmall forces eviction during
	// flushes, exercising the prevent_evict window.
	poolNormal = 192
	poolSmall  = 64
)

// relName is the single relation every trace operates on.
const relName = "r"

// writeChunk is the streaming writer's chunk size. Deliberately not a
// page multiple so extent boundaries land mid-chunk.
const writeChunk = 1536

// Config parameterizes an exploration run. The zero value is not usable;
// see DefaultConfig.
type Config struct {
	Seed      int64                            // master seed: derives trace seeds and crash-point samples
	Traces    int                              // op traces to generate
	Steps     int                              // ops per trace
	Points    int                              // crash points sampled per (trace, mode)
	Modes     []storage.TearMode               // tear models to explore
	SmallPool bool                             // shrink the buffer pool to force eviction during flushes
	Dedup     bool                             // generate dedup/relocation-heavy traces (put-dup, relocate families)
	Logf      func(format string, args ...any) // optional progress output
}

// DefaultConfig returns the exploration parameters used by the short CI
// job: both tear modes, enough sampled points to clear
// 500 schedules.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:   seed,
		Traces: 6,
		Steps:  25,
		Points: 42,
		Modes:  []storage.TearMode{storage.TearOrdered, storage.TearScramble},
	}
}

// DefaultDedupConfig returns the exploration parameters of the
// dedup/relocation sweep: the same budget as DefaultConfig but with
// sharing-heavy traces, so crash points land inside refcount-ledger
// appends, duplicate-put commits and aborts, and relocation copy/remap
// windows.
func DefaultDedupConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.Dedup = true
	return c
}

// Schedule identifies one deterministic crash schedule.
type Schedule struct {
	TraceSeed int64
	CrashOp   int // mutating-op index to crash at; -1 crashes after the whole trace
	Mode      storage.TearMode
}

func (s Schedule) String() string {
	return fmt.Sprintf("trace-seed=%d crashpoint=%d tear=%s", s.TraceSeed, s.CrashOp, s.Mode)
}

// ScheduleResult reports a completed schedule.
type ScheduleResult struct {
	Ops      int      // mutating device ops the trace performed (crash-point space)
	OpHashes []uint64 // record passes: rolling op hash after each op
	Report   *core.RecoveryReport
}

func (c Config) poolPages() int {
	if c.SmallPool {
		return poolSmall
	}
	return poolNormal
}

func (c Config) dbOptions() []core.Option {
	return []core.Option{
		core.WithLogPages(simLogPages),
		core.WithCkptPages(simCkptPages),
		core.WithPoolPages(c.poolPages()),
		// The inline queue runs every submission synchronously on the
		// submitting goroutine: the pipelined committer and queue-routed
		// pool I/O exercise the same code paths as the real server, but the
		// FaultDevice observes operations in caller order, keeping the
		// op-hash replay deterministic.
		core.WithInlineQueue(true),
	}
}

// tearSeed mixes the crash point into the tear rng seed so different crash
// points of one trace tear differently (while staying deterministic).
func tearSeed(s Schedule) int64 {
	return int64(uint64(s.TraceSeed) ^ uint64(s.CrashOp+1)*0x9e3779b97f4a7c15)
}

// runner executes one schedule.
type runner struct {
	cfg     Config
	sched   Schedule
	fd      *storage.FaultDevice
	db      *core.DB
	model   *refmodel.Model
	crashed bool

	// afterBatch, when set, runs after every fully synced commit batch
	// (keys already promoted in the model). The failover harness hooks it
	// to log acknowledged batches and drive replica pulls.
	afterBatch func(keys []string) error
}

// RunSchedule executes one schedule end to end: drive the trace until the
// crash point fires (or the trace ends), freeze the device image, recover
// it, and verify the result against the reference model. wantHashes, when
// non-nil (replay of a recorded trace), is checked against the device's
// op-hash chain to prove the replay followed the identical I/O schedule.
func (c Config) RunSchedule(s Schedule, wantHashes []uint64) (*ScheduleResult, error) {
	ops := genTrace(s.TraceSeed, c.Steps, c.Dedup)
	inner := storage.NewMemDevice(simPageSize, simDevPages, nil)
	fd, err := storage.NewFaultDevice(inner, storage.FaultConfig{
		Seed:    tearSeed(s),
		CrashOp: s.CrashOp,
		Mode:    s.Mode,
		Record:  wantHashes == nil,
	})
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: c, sched: s, fd: fd, model: refmodel.New()}

	r.db, err = core.New(fd, c.dbOptions()...)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	seedEviction(r.db, s.TraceSeed)
	if _, err := r.db.CreateRelation(relName); err != nil {
		return nil, err
	}

	for i, op := range ops {
		if r.crashed {
			break
		}
		if err := r.exec(op); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.kind, err)
		}
	}
	if !r.crashed {
		// The sampled crash point lies past the trace (or this is a record
		// pass): crash at the very end, with everything promoted.
		fd.CrashNow()
	}
	// Quiesce the engine's background goroutines before recovery. Commit
	// failures after the crash are expected; the committer must still shut
	// down cleanly.
	r.db.ReleaseCommits()
	_ = r.db.CloseCommitter()

	res := &ScheduleResult{Ops: fd.Ops(), OpHashes: fd.OpHashes()}
	if wantHashes != nil {
		n := fd.Ops()
		if n >= len(wantHashes) || fd.OpHash() != wantHashes[n] {
			return nil, fmt.Errorf("nondeterministic replay: op hash after %d ops diverged from the recorded trace", n)
		}
	}
	rep, err := r.verifyRecovery()
	res.Report = rep
	if err != nil {
		return res, err
	}
	return res, nil
}

// noteCrash classifies an engine error: if the crash point fired, the
// error is expected and the run moves to recovery; anything else is a real
// failure.
func (r *runner) noteCrash(err error) error {
	if err == nil {
		return nil
	}
	if r.fd.Crashed() {
		r.crashed = true
		return nil
	}
	return err
}

func (r *runner) exec(op traceOp) error {
	switch op.kind {
	case opPut:
		return r.puts(op.subs, false)
	case opBatchPut:
		return r.puts(op.subs, false)
	case opPutAbort:
		return r.puts(op.subs, true)
	case opAppend:
		return r.append(op.subs[0])
	case opDelete:
		return r.delete(op.subs[0])
	case opUpdateClone:
		return r.update(op.subs[0], blob.UpdateClone)
	case opUpdateInPlace:
		return r.update(op.subs[0], blob.UpdateDelta)
	case opCheckpoint:
		return r.noteCrash(r.db.WAL().Checkpoint(nil))
	case opRead:
		return r.read(op.subs[0])
	case opPutDup:
		return r.puts(op.subs, false)
	case opPutDupAbort:
		return r.puts(op.subs, true)
	case opRelocate:
		return r.relocate()
	default:
		return fmt.Errorf("crashsim: unknown op kind %v", op.kind)
	}
}

// stream writes sub.write through a streaming blob writer in fixed chunks.
func stream(w *blob.Writer, data []byte) error {
	for len(data) > 0 {
		n := writeChunk
		if n > len(data) {
			n = len(data)
		}
		if _, err := w.Write(data[:n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// puts runs one or more streaming CreateBlob transactions and commits them
// as a single group-commit batch (or aborts them all when abort is set).
func (r *runner) puts(subs []subOp, abort bool) error {
	var txns []*core.Txn
	var keys []string
	for _, sub := range subs {
		tx := r.db.Begin(nil)
		w, err := tx.CreateBlob(nil, relName, []byte(sub.key))
		if err != nil {
			tx.Abort()
			abortAll(txns)
			return r.noteCrash(err)
		}
		if !abort {
			// Staged before the first byte hits the device: from here on a
			// crash may surface either the old or the new value.
			r.model.StagePut(sub.key, sub.full)
		}
		err = stream(w, sub.write)
		if err == nil {
			if abort {
				w.Abort()
			} else {
				err = w.Close()
			}
		} else {
			w.Abort()
		}
		if err != nil {
			tx.Abort()
			abortAll(txns)
			return r.noteCrash(err)
		}
		if abort {
			if err := tx.Abort(); err != nil {
				return err
			}
			continue
		}
		txns = append(txns, tx)
		keys = append(keys, sub.key)
	}
	if abort {
		return nil
	}
	return r.commitBatch(txns, keys)
}

func abortAll(txns []*core.Txn) {
	for _, tx := range txns {
		_ = tx.Abort()
	}
}

func (r *runner) append(sub subOp) error {
	tx := r.db.Begin(nil)
	w, err := tx.AppendBlob(nil, relName, []byte(sub.key))
	if err != nil {
		tx.Abort()
		return r.noteCrash(err)
	}
	r.model.StagePut(sub.key, sub.full)
	if err := stream(w, sub.write); err != nil {
		w.Abort()
		tx.Abort()
		return r.noteCrash(err)
	}
	if err := w.Close(); err != nil {
		tx.Abort()
		return r.noteCrash(err)
	}
	return r.commitBatch([]*core.Txn{tx}, []string{sub.key})
}

func (r *runner) delete(sub subOp) error {
	tx := r.db.Begin(nil)
	r.model.StageDelete(sub.key)
	if err := tx.DeleteBlob(relName, []byte(sub.key)); err != nil {
		tx.Abort()
		return r.noteCrash(err)
	}
	return r.commitBatch([]*core.Txn{tx}, []string{sub.key})
}

func (r *runner) update(sub subOp, scheme blob.UpdateScheme) error {
	tx := r.db.Begin(nil)
	if scheme == blob.UpdateDelta {
		r.model.StageUpdateInPlace(sub.key, sub.full)
	} else {
		r.model.StagePut(sub.key, sub.full)
	}
	if err := tx.UpdateBlob(relName, []byte(sub.key), sub.off, sub.patch, scheme); err != nil {
		tx.Abort()
		return r.noteCrash(err)
	}
	return r.commitBatch([]*core.Txn{tx}, []string{sub.key})
}

// relocate runs one defragmentation round fragment: plan a few moves and
// commit each in its own transaction through the normal pipeline. Content
// is unchanged by construction, so the reference model stages nothing —
// the flush-first relocation protocol guarantees every crash point inside
// the window recovers the key byte-identical (old or new address).
func (r *runner) relocate() error {
	targets := r.db.PlanRelocations(3)
	for _, tgt := range targets {
		if r.crashed {
			return nil
		}
		tx := r.db.Begin(nil)
		moved, err := tx.RelocateExtent(tgt)
		if err != nil {
			tx.Abort()
			return r.noteCrash(err)
		}
		if !moved {
			tx.Abort()
			continue
		}
		if err := r.commitBatch([]*core.Txn{tx}, nil); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) read(sub subOp) error {
	tx := r.db.Begin(nil)
	defer tx.Commit()
	got, err := tx.ReadBlobBytes(relName, []byte(sub.key))
	if err != nil {
		return r.noteCrash(err)
	}
	want, ok := r.model.Committed(sub.key)
	if !ok {
		return fmt.Errorf("crashsim: read of %q: model has no committed value", sub.key)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("crashsim: pre-crash read of %q returned %d bytes, want %d (content diverged before any crash)",
			sub.key, len(got), len(want))
	}
	return nil
}

// commitBatch commits the transactions as one deterministic group-commit
// batch, then issues a device sync and promotes the keys in the model.
// Until that sync completes, every key stays ambiguous — the batch's WAL
// records and extent writes may tear at the crash.
func (r *runner) commitBatch(txns []*core.Txn, keys []string) error {
	r.db.HoldCommits()
	acks := make([]<-chan error, 0, len(txns))
	for _, tx := range txns {
		ch, err := tx.CommitAsync()
		if err != nil {
			r.db.ReleaseCommits()
			return r.noteCrash(err)
		}
		acks = append(acks, ch)
	}
	r.db.ReleaseCommits()
	for _, ch := range acks {
		if err := <-ch; err != nil {
			return r.noteCrash(err)
		}
	}
	// Durability barrier: after this sync the batch's extents are on
	// stable storage and the outcomes collapse to the new values.
	//blobvet:allow harness-issued sync on the fault device models the OS flush the schedule crashes around; not engine durability ordering
	if err := r.fd.Sync(nil); err != nil {
		return r.noteCrash(err)
	}
	for _, k := range keys {
		r.model.Promote(k)
	}
	if r.afterBatch != nil {
		return r.afterBatch(keys)
	}
	return nil
}

// verifyRecovery freezes the crash image, recovers it into a fresh engine,
// and checks the result against the reference model plus the allocator
// leak invariant.
func (r *runner) verifyRecovery() (*core.RecoveryReport, error) {
	img := r.fd.CrashImage()
	if img == nil {
		return nil, fmt.Errorf("crashsim: device never crashed")
	}
	rep, snap, err := recoverAndCheck(img, r.cfg.dbOptions())
	if err != nil {
		return rep, err
	}
	return rep, r.model.Verify(snap)
}

// seedEviction reseeds the pool's eviction sampling so pool decisions
// replay exactly for a given schedule.
func seedEviction(db *core.DB, seed int64) {
	db.Pool().(*buffer.VMPool).SetEvictionSeed(seed)
}

// recoverAndCheck recovers a frozen crash image into a fresh engine,
// snapshots every surviving key, and enforces the allocator leak
// invariant: the rebuilt allocator's live pages must equal the pages
// owned by surviving blobs counted once per DISTINCT extent — with
// content-addressed dedup, several tuples may reference one sequence, and
// double-counting would mask exactly the double-free/leak bugs this
// harness exists to catch. The refcount ledger itself is cross-checked
// against a full recount (core.CheckLedger). The caller judges the
// snapshot against its reference model.
func recoverAndCheck(img []byte, opts []core.Option) (*core.RecoveryReport, map[string][]byte, error) {
	rdev := storage.NewMemDeviceFrom(simPageSize, simDevPages, nil, img)
	db, rep, err := core.RecoverDevice(rdev, nil, opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("crashsim: recovery failed on crash image: %w", err)
	}
	snap, states, err := snapshot(db)
	if err != nil {
		return rep, nil, fmt.Errorf("crashsim: snapshot recovered db: %w", err)
	}
	tiers := db.Allocator().Tiers()
	unique := map[storage.PID]uint64{} // pid -> pages, deduplicated
	for _, st := range states {
		for i, pid := range st.Extents {
			unique[pid] = tiers.Size(i)
		}
		if st.HasTail() {
			unique[st.Tail.PID] = st.Tail.Pages
		}
	}
	var want uint64
	for _, pages := range unique {
		want += pages
	}
	if got := db.Allocator().Stats().LivePages; got != want {
		return rep, snap, fmt.Errorf("crashsim: allocator LivePages=%d but surviving blobs own %d distinct pages (leak or double-free)", got, want)
	}
	if err := db.CheckLedger(); err != nil {
		return rep, snap, fmt.Errorf("crashsim: refcount ledger inconsistent after recovery: %w", err)
	}
	return rep, snap, nil
}

// snapshot extracts every key's full content from a recovered database.
func snapshot(db *core.DB) (map[string][]byte, []*blob.State, error) {
	tx := db.Begin(nil)
	defer tx.Commit()
	type entry struct {
		key string
		st  *blob.State
	}
	var entries []entry
	err := tx.Scan(relName, nil, func(k, inline []byte, st *blob.State) bool {
		if st != nil {
			entries = append(entries, entry{string(k), st.Clone()})
		}
		return true
	})
	if err != nil {
		// The relation may not have survived an early crash: an empty
		// database is a legal snapshot (the model decides whether data was
		// allowed to vanish).
		return map[string][]byte{}, nil, nil
	}
	snap := make(map[string][]byte, len(entries))
	states := make([]*blob.State, 0, len(entries))
	for _, e := range entries {
		content, err := tx.ReadBlobBytes(relName, []byte(e.key))
		if err != nil {
			return nil, nil, fmt.Errorf("read %q: %w", e.key, err)
		}
		snap[e.key] = content
		states = append(states, e.st)
	}
	return snap, states, nil
}
