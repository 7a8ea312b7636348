// Gitclone replays the paper's §V-I write-intensive workload — a simulated
// `git clone` of a kernel-tree-shaped checkout — against the engine and
// against a simulated Ext4, printing the Table IV-style comparison. The
// point (§V-I): the engine replaces open/fstat/close with B-tree
// operations, so the metadata-heavy clone runs several times faster.
package main

import (
	"fmt"
	"log"
	"time"

	"blobdb/internal/core"
	"blobdb/internal/fsim"
	"blobdb/internal/gittrace"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// dbTarget adapts the engine to the trace replayer: one transaction per
// file, built up with the §III-D growth path (resumable SHA-256).
type dbTarget struct {
	db *core.DB
	m  *simtime.Meter
}

func (t *dbTarget) Create(path string) error {
	tx := t.db.Begin(t.m)
	w, err := tx.CreateBlob(tx.Context(), "repo", []byte(path))
	if err != nil {
		tx.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (t *dbTarget) Append(path string, data []byte) error {
	tx := t.db.Begin(t.m)
	w, err := tx.AppendBlob(tx.Context(), "repo", []byte(path))
	if err != nil {
		tx.Abort()
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		tx.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (t *dbTarget) Close(path string) error { return nil }

func (t *dbTarget) Stat(path string) error {
	tx := t.db.Begin(t.m)
	defer tx.Commit()
	_, err := tx.BlobState("repo", []byte(path))
	return err
}

func main() {
	cfg := gittrace.DefaultConfig()
	cfg.Files = 2000
	cfg.TotalBytes = 32 << 20
	trace := gittrace.Generate(cfg)
	fmt.Printf("clone trace: %d files, %d MB, %d operations\n\n",
		trace.Files, trace.TotalBytes>>20, len(trace.Ops))

	// --- the engine ---------------------------------------------------
	// Extent flushes and WAL syncs are asynchronous (§III-C): they cost
	// bandwidth but no command latency.
	cost := simtime.DefaultNVMe()
	cost.WriteLatency, cost.SyncLatency = 0, 0
	dev := storage.NewMemDevice(storage.DefaultPageSize, 1<<15, cost)
	db, err := core.New(dev, core.WithPoolPages(1<<13), core.WithLogPages(1<<12), core.WithCkptPages(1<<12))
	if err != nil {
		log.Fatal(err)
	}
	db.CreateRelation("repo")
	mDB := simtime.NewMeter()
	start := time.Now()
	if err := gittrace.Replay(trace, &dbTarget{db: db, m: mDB}); err != nil {
		log.Fatal(err)
	}
	dbTime := time.Since(start) + mDB.Elapsed()

	// --- Ext4 (simulated) ---------------------------------------------
	k := fsim.Ext4Ordered(fsim.Options{
		Dev:         storage.NewMemDevice(storage.DefaultPageSize, 1<<15, simtime.DefaultNVMe()),
		CacheBlocks: 1 << 13,
	})
	mFS := simtime.NewMeter()
	start = time.Now()
	fds := map[string]int{}
	sizes := map[string]int64{}
	for _, op := range trace.Ops {
		var err error
		switch op.Kind {
		case gittrace.OpCreate:
			fds[op.Path], err = k.Open(mFS, op.Path, true)
		case gittrace.OpWrite:
			_, err = k.PWrite(mFS, fds[op.Path], make([]byte, op.Size), sizes[op.Path])
			sizes[op.Path] += int64(op.Size)
		case gittrace.OpClose:
			err = k.Close(mFS, fds[op.Path])
		case gittrace.OpStat:
			_, err = k.Stat(mFS, op.Path)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fsTime := time.Since(start) + mFS.Elapsed()

	fmt.Printf("%-14s %10s %14s %12s\n", "system", "time", "syscalls", "kernel work")
	fmt.Printf("%-14s %10v %14d %12d\n", "blobdb", dbTime.Round(time.Millisecond), mDB.Snapshot().Syscalls, mDB.Snapshot().KernelOps)
	fmt.Printf("%-14s %10v %14d %12d\n", "Ext4(sim)", fsTime.Round(time.Millisecond), mFS.Snapshot().Syscalls, mFS.Snapshot().KernelOps)
	fmt.Printf("\nspeedup: %.1fx — open/fstat/close became B-tree operations (§V-I)\n",
		float64(fsTime)/float64(dbTime))
}
