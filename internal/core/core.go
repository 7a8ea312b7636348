// Package core is the storage engine of the reproduction: a LeanStore-like
// embedded engine with relations, ACID transactions, and first-class BLOB
// columns implementing the paper's design — Blob State indirection
// (§III-B), single-flush durability (§III-C), extent recycling (§III-D),
// content and semantic indexing (§III-F), and virtual-memory-assisted reads
// (§IV).
//
// The public entry points are New (fresh device) and RecoverDevice (after
// a crash); transactions are created with Begin. The engine runs
// in-process (like SQLite) — the paper attributes much of PostgreSQL's and
// MySQL's BLOB overhead to their client/server boundary, which this engine
// simply does not have.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blobdb/internal/blob"
	"blobdb/internal/btree"
	"blobdb/internal/buffer"
	"blobdb/internal/extent"
	"blobdb/internal/storage"
	"blobdb/internal/wal"
)

// options collects the knobs the functional options (options.go) set. The
// positional core.Open(core.Options{...})/core.Recover(...) constructors
// were removed; New and RecoverDevice are the only construction API.
type options struct {
	// Dev is the block device; required.
	Dev storage.Device
	// PoolPages sizes the buffer pool (default: 1/4 of the device).
	PoolPages int
	// LogPages sizes the WAL region (default: 1/16 of the device).
	LogPages uint64
	// CkptPages sizes the checkpoint region (default: 1/8 of the device).
	CkptPages uint64
	// HashTablePool selects the Our.ht baseline buffer manager instead of
	// the vmcache-style pool.
	HashTablePool bool
	// TierOnly turns §III-A tail extents off: every blob ends in a
	// whole tier extent. Only the ablation's tier-formula row sets it.
	TierOnly bool
	// WorkerLocalAliasPages sizes each worker-local aliasing area
	// (default 1024 pages = 4 MB).
	WorkerLocalAliasPages int
	// WALBufferCap sizes per-transaction WAL buffers (default 10 MB).
	WALBufferCap int
	// QueueDepth bounds the buffer pool's concurrent device commands
	// (default storage.DefaultQueueDepth).
	QueueDepth int
	// InlineQueue makes the committer wait for each batch's extent flush
	// before it forms the next batch — crashsim's determinism mode.
	InlineQueue bool
}

// DB is an open database.
type DB struct {
	opts  options
	dev   storage.Device
	wal   *wal.Manager
	pool  buffer.Pool
	alloc *extent.Allocator
	alias *buffer.AliasManager
	blobs *blob.Manager

	ckptStart storage.PID
	ckptPages uint64
	ckptNext  int // checkpoint slot the next image is written to; see recover.go
	// ckptHead is the first page of the image the running checkpoint
	// wrote, at ckptHeadPID; confirmCheckpoint rewrites it with the
	// confirmation byte set once the image is durable.
	ckptHead    []byte
	ckptHeadPID storage.PID

	mu   sync.RWMutex // guards rels
	rels map[string]*Relation

	locks     lockTable
	reclaim   reclaimer
	dedup     dedup
	xfers     [TransferCopied + 1]atomic.Uint64 // Install outcomes, indexed by Transfer
	xferBytes atomic.Uint64                     // bytes Install read from sources
	nextTxn   atomic.Uint64
	commit    *committer        // the group committer (commit.go)
	queue     *storage.SubQueue // depth gate on the buffer pool's device commands

	// ckptMu is held while the committer finishes a batch.
	ckptMu sync.Mutex
	// landMu is held by a checkpoint while it captures the trees and by
	// a commit flight while it marks its transactions landed (landed.go),
	// so an image never sees a transaction half landed.
	landMu sync.Mutex
}

// Relation is a named key/value relation whose values are inline bytes or
// BLOB columns (Blob States stored with the tuple, §III-B).
type Relation struct {
	name string
	mu   sync.RWMutex
	tree *btree.Tree

	contentIdx  *ContentIndex
	semanticIdx map[string]*SemanticIndex

	// staged maps each key whose tree value a not-yet-landed transaction
	// staged to that transaction and the key's last landed value; guarded
	// by mu together with tree (landed.go).
	staged map[string]*stagedKey
}

// newRelation wraps tree as relation name with no secondary indexes.
func newRelation(name string, tree *btree.Tree) *Relation {
	return &Relation{name: name, tree: tree, semanticIdx: map[string]*SemanticIndex{}}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// open initializes a database over the device. The device is laid out as
// [WAL | checkpoint area | extent region]. It backs New and RecoverDevice.
func open(o options) (*DB, error) {
	if o.Dev == nil {
		return nil, errors.New("core: device is required")
	}
	n := o.Dev.NumPages()
	if o.LogPages == 0 {
		o.LogPages = n / 16
	}
	if o.CkptPages == 0 {
		o.CkptPages = n / 8
	}
	if o.PoolPages == 0 {
		o.PoolPages = int(n / 4)
	}
	if o.WorkerLocalAliasPages == 0 {
		o.WorkerLocalAliasPages = 1024
	}
	heapStart := storage.PID(o.LogPages + o.CkptPages)
	if uint64(heapStart) >= n {
		return nil, fmt.Errorf("core: device of %d pages too small for log %d + checkpoint %d",
			n, o.LogPages, o.CkptPages)
	}

	db := &DB{
		opts:      o,
		dev:       o.Dev,
		ckptStart: storage.PID(o.LogPages),
		ckptPages: o.CkptPages,
		rels:      map[string]*Relation{},
	}
	db.wal = wal.NewManager(o.Dev, 0, storage.PID(o.LogPages))
	if o.WALBufferCap > 0 {
		db.wal.SetBufferCap(o.WALBufferCap)
	}
	// Checkpoint once half the log region has been written since the last
	// one.
	db.wal.CheckpointThreshold = int64(o.LogPages) * int64(o.Dev.PageSize()) / 2
	db.wal.OnCheckpoint = db.writeCheckpoint
	db.wal.OnCheckpointDurable = db.confirmCheckpoint

	db.queue = storage.NewSubQueue(o.Dev, o.QueueDepth)
	if o.HashTablePool {
		db.pool = buffer.NewHTPool(db.queue.Device(), o.PoolPages)
	} else {
		db.pool = buffer.NewVMPool(db.queue.Device(), o.PoolPages)
	}
	db.alloc = extent.NewAllocator(extent.NewTierTable(extent.DefaultTiersPerLevel),
		heapStart, storage.PID(n))
	db.alias = buffer.NewAliasManager(o.Dev.PageSize(), o.WorkerLocalAliasPages, o.PoolPages)
	db.blobs = blob.NewManager(db.pool, db.alloc, db.alias)
	db.blobs.UseTail = !o.TierOnly
	db.locks.init()
	db.reclaim.init()
	db.dedup.init(db.wal.NewWriter())
	db.commit = db.newCommitter()
	return db, nil
}

// Blobs exposes the blob manager (used by benchmarks and the FUSE layer).
func (db *DB) Blobs() *blob.Manager { return db.blobs }

// Pool exposes the buffer pool.
func (db *DB) Pool() buffer.Pool { return db.pool }

// WAL exposes the write-ahead log manager.
func (db *DB) WAL() *wal.Manager { return db.wal }

// Allocator exposes the extent allocator.
func (db *DB) Allocator() *extent.Allocator { return db.alloc }

// AliasManager exposes the aliasing-area manager.
func (db *DB) AliasManager() *buffer.AliasManager { return db.alias }

// Queue exposes the depth gate on the pool's device commands (metrics
// reach through for depth/inflight counters).
func (db *DB) Queue() *storage.SubQueue { return db.queue }

// CreateRelation creates a relation ("CREATE TABLE image(filename VARCHAR
// PRIMARY KEY, content BLOB)" maps to CreateRelation("image")) and returns
// once the creation is durable. Creation lands no extents, so its commit
// record needs only a WAL sync, not the group committer: CreateRelation
// works inside a HoldCommits window too.
func (db *DB) CreateRelation(name string) (*Relation, error) {
	t := db.Begin(nil)
	defer db.endTxn(t.id)
	r, err := t.createRelation(name)
	if err == nil {
		_, err = t.writer.CommitNoSync(nil, t.id)
	}
	t.writer.Close()
	if err != nil {
		return nil, err
	}
	return r, db.wal.Sync(nil)
}

// createRelation publishes the relation and then logs its creation in t:
// a wal.RecBegin record whose payload is the name, redone at recovery once
// t commits. Publishing first keeps the recovery LSN rule: a checkpoint
// image that lacks the relation has an LSN below the creation record.
func (t *Txn) createRelation(name string) (*Relation, error) {
	db := t.db
	db.mu.Lock()
	if _, ok := db.rels[name]; ok {
		db.mu.Unlock()
		return nil, fmt.Errorf("core: %q: %w", name, ErrRelationExists)
	}
	r := newRelation(name, btree.New(nil))
	db.rels[name] = r
	db.mu.Unlock()
	if _, err := t.log().AppendLSN(t.meter, t.id, wal.RecBegin, []byte(name)); err != nil {
		return nil, err
	}
	t.wrote = true
	return r, nil
}

// Relation looks up a relation by name.
func (db *DB) Relation(name string) (*Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("core: %q: %w", name, ErrNoRelation)
	}
	return r, nil
}

// Relations returns the relation names in unspecified order.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.rels))
	for name := range db.rels {
		out = append(out, name)
	}
	return out
}

// value encoding: tag byte then payload.
const (
	tagInline byte = 0
	tagBlob   byte = 1
)

// decodeValue splits a stored value into its tag and payload.
func decodeValue(v []byte) (byte, []byte, error) {
	if len(v) == 0 {
		return 0, nil, errors.New("core: empty stored value")
	}
	return v[0], v[1:], nil
}

// DesignSummary returns the qualitative Table I row for this engine.
func DesignSummary() map[string]string {
	return map[string]string{
		"Physical storage format": "Extent sequence (flat list, tier-sized extents, optional tail extent)",
		"Max size":                "10PB (127 extents, 4KB pages, 10 tiers/level)",
		"Read cost":               "Low (one vectored read per BLOB, single indirection)",
		"Indexing - Prefix limit": "Arbitrary size (Blob State index, incremental comparator)",
		"Duplicated copies":       "None (single-flush logging; WAL carries only the Blob State)",
	}
}

// lockTable implements exclusive record locks for 2PL on Blob State rows
// (§III-H). Lock keys are "relation\x00primarykey".
type lockTable struct {
	mu    sync.Mutex
	locks map[string]*recordLock
}

type recordLock struct {
	mu    sync.Mutex
	owner uint64 // txn id holding the lock (under lockTable.mu)
	refs  int
}

func (lt *lockTable) init() { lt.locks = map[string]*recordLock{} }

// acquire blocks until the lock for key is held by txn. Reentrant per txn.
func (lt *lockTable) acquire(txn uint64, key string) bool {
	lt.mu.Lock()
	l, ok := lt.locks[key]
	if !ok {
		l = &recordLock{}
		lt.locks[key] = l
	}
	if l.owner == txn && l.refs > 0 {
		lt.mu.Unlock()
		return false // already held; no extra release needed
	}
	l.refs++
	lt.mu.Unlock()

	l.mu.Lock()
	lt.mu.Lock()
	l.owner = txn
	lt.mu.Unlock()
	return true
}

func (lt *lockTable) release(key string) {
	lt.mu.Lock()
	l := lt.locks[key]
	l.owner = 0
	l.refs--
	if l.refs == 0 {
		delete(lt.locks, key)
	}
	lt.mu.Unlock()
	l.mu.Unlock()
}

func lockKey(rel string, key []byte) string {
	return rel + "\x00" + string(key)
}
