// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§V), each producing rows/series in the
// paper's format. cmd/blobbench drives it from the command line and
// bench_test.go wraps it in testing.B benchmarks.
//
// Geometry is scaled to laptop size (the paper uses a 32 GB buffer pool on
// a 1 TB SSD); EXPERIMENTS.md records the scaling next to each result. The
// quantities being compared — copies per read, write amplification,
// syscall counts, checkpoint frequency, allocator behaviour — are scale
// free.
package bench

import (
	"blobdb/internal/blob"
	"blobdb/internal/core"
	"blobdb/internal/dbsim"
	"blobdb/internal/oskern"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
	"blobdb/internal/ycsb"
)

// System is the uniform interface every competitor is driven through.
type System interface {
	Name() string
	// Put stores content under key (one transaction / one file write).
	Put(m *simtime.Meter, key string, content []byte) error
	// Get reads the value into buf, returning bytes read. buf is the
	// "application buffer": every system ends with the BLOB bytes in it,
	// so copy counts are comparable.
	Get(m *simtime.Meter, key string, buf []byte) (int, error)
	// Delete removes the key.
	Delete(m *simtime.Meter, key string) error
}

// metaSystem is implemented by systems that support the Figure 7 metadata
// operation (stat / Blob State retrieval) over n consecutive records.
type metaSystem interface {
	Meta(m *simtime.Meter, startIdx, n int) error
}

// OurSystem adapts the core engine. Variant selects Our / Our.ht /
// Our.physlog per §V-B.
type OurSystem struct {
	name string
	DB   *core.DB
	rel  string
	ht   bool // page-granular pool: reads must materialize (two copies)
	// physlog: Put also logs the content to the WAL (the Our.physlog
	// baseline); the engine itself logs only the Blob State.
	physlog bool
}

// OurVariant selects the engine configuration.
type OurVariant int

// The three engine variants of Figure 6.
const (
	VariantOur OurVariant = iota
	VariantOurHT
	VariantOurPhyslog
)

// OurOptions sizes the engine for an experiment.
type OurOptions struct {
	DevPages  uint64
	PoolPages int
	LogPages  uint64
	// WorkerLocalAliasPages for Table II; 0 = default.
	WorkerLocalAliasPages int
	WALBufferCap          int
	// TierOnly turns tail extents off (the ablation's tier-formula row).
	TierOnly bool
}

// NewOurSystem builds an engine variant on a fresh in-memory device with
// the shared NVMe cost model.
func NewOurSystem(v OurVariant, o OurOptions) (*OurSystem, error) {
	// The engine sees asynchronous write semantics (§III-C commit path:
	// async extent flush + group commit): a write or sync costs its
	// bandwidth share but no command latency. Reads stay synchronous.
	cost := simtime.DefaultNVMe()
	cost.WriteLatency, cost.SyncLatency = 0, 0
	dev := storage.NewMemDevice(storage.DefaultPageSize, o.DevPages, cost)
	db, err := core.New(dev,
		core.WithPoolPages(o.PoolPages),
		core.WithLogPages(o.LogPages),
		core.WithCkptPages(o.DevPages/16),
		core.WithHashTablePool(v == VariantOurHT),
		core.WithTailExtents(!o.TierOnly),
		core.WithAliasPages(o.WorkerLocalAliasPages),
		core.WithWALBufferCap(o.WALBufferCap),
	)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateRelation("bench"); err != nil {
		return nil, err
	}
	name := map[OurVariant]string{
		VariantOur: "Our", VariantOurHT: "Our.ht", VariantOurPhyslog: "Our.physlog",
	}[v]
	return &OurSystem{name: name, DB: db, rel: "bench", ht: v == VariantOurHT, physlog: v == VariantOurPhyslog}, nil
}

// Name implements System.
func (s *OurSystem) Name() string { return s.name }

// Put implements System: the content streams through a blob.Writer — the
// same path the network blob service uses for uploads.
func (s *OurSystem) Put(m *simtime.Meter, key string, content []byte) error {
	tx := s.DB.Begin(m)
	bw, err := tx.CreateBlob(tx.Context(), s.rel, []byte(key))
	if err != nil {
		tx.Abort()
		return err
	}
	if _, err := bw.Write(content); err != nil {
		bw.Abort()
		tx.Abort()
		return err
	}
	if err := bw.Close(); err != nil {
		tx.Abort()
		return err
	}
	m.CountBytesMoved(int64(len(content))) // the copy into the extent frames
	if s.physlog {
		// The content goes through the WAL as well, flushed ahead of the
		// commit and charged as background work like the committer's
		// flush.
		lw := s.DB.WAL().NewWriter()
		err := lw.AppendBlobData(nil, tx.ID(), content)
		if err == nil {
			err = lw.Flush(nil)
		}
		lw.Close()
		if err != nil {
			tx.Abort()
			return err
		}
	}
	return commitAsync(tx)
}

// Get implements System. The vmcache variant copies once through the
// aliased view; the hash-table variant must materialize first (malloc +
// gather) and then copy into the application buffer — the §V-E two-copy
// path.
func (s *OurSystem) Get(m *simtime.Meter, key string, buf []byte) (int, error) {
	tx := s.DB.Begin(m)
	defer tx.Commit()
	st, err := tx.BlobState(s.rel, []byte(key))
	if err != nil {
		return 0, err
	}
	h, err := s.DB.Blobs().Read(m, st)
	if err != nil {
		return 0, err
	}
	defer h.Close(m)
	if s.ht {
		tmp := h.View().Materialize() // copy 1: gather into malloc'd block
		n := copy(buf, tmp)           // copy 2: the BLOB read operator
		m.CountBytesMoved(2 * int64(n))
		return n, nil
	}
	n := h.View().CopyTo(buf, 0) // single copy via aliasing
	m.CountBytesMoved(int64(n))
	return n, nil
}

// Delete implements System.
func (s *OurSystem) Delete(m *simtime.Meter, key string) error {
	tx := s.DB.Begin(m)
	if err := tx.DeleteBlob(s.rel, []byte(key)); err != nil {
		tx.Abort()
		return err
	}
	return commitAsync(tx)
}

// Meta implements metaSystem: one B-tree range scan retrieves the Blob
// States of n consecutive records (the Figure 7 DBMS side).
func (s *OurSystem) Meta(m *simtime.Meter, startIdx, n int) error {
	tx := s.DB.Begin(m)
	defer tx.Commit()
	seen := 0
	return tx.Scan(s.rel, []byte(ycsb.Key(startIdx)), func(key, inline []byte, st *blob.State) bool {
		seen++
		return seen < n
	})
}

// commitAsync enqueues tx on the group committer without waiting for its
// ack: the figures model the committer as background work that overlaps
// the workers (CommitterBusy). Failures surface through Drain and
// DB.CommitterErr.
func commitAsync(tx *core.Txn) error {
	_, err := tx.CommitAsync()
	return err
}

// Drain flushes the commit pipeline (end of a measured window).
func (s *OurSystem) Drain() error { return s.DB.DrainCommits() }

// EvictAll empties the buffer pool (cold-cache experiments).
func (s *OurSystem) EvictAll(m *simtime.Meter) error { return s.DB.Pool().EvictAll(m) }

// FSSystem adapts a simulated file-system kernel.
type FSSystem struct {
	K *oskern.Kernel
}

// Name implements System.
func (s *FSSystem) Name() string { return s.K.Name() }

// Put implements System: create + write + close.
func (s *FSSystem) Put(m *simtime.Meter, key string, content []byte) error {
	return s.K.WriteFile(m, "/"+key, content)
}

// Get implements System: fstat + open + pread + close; pread's kernel→user
// copy plus the application's own copy is the two-copy file path of §V-D.
func (s *FSSystem) Get(m *simtime.Meter, key string, buf []byte) (int, error) {
	return s.K.ReadFile(m, "/"+key, buf)
}

// Delete implements System.
func (s *FSSystem) Delete(m *simtime.Meter, key string) error {
	return s.K.Unlink(m, "/"+key)
}

// Meta implements metaSystem: file systems have no ordered scan, so the
// §V-C setup calls fstat on each of the n consecutive files by name.
func (s *FSSystem) Meta(m *simtime.Meter, startIdx, n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.K.Stat(m, "/"+ycsb.Key(startIdx+i)); err != nil {
			return err
		}
	}
	return nil
}

// DBSimSystem adapts the dbsim competitors (they already match System).
type DBSimSystem struct{ DB dbsim.BlobDB }

// Name implements System.
func (s *DBSimSystem) Name() string { return s.DB.Name() }

// Put implements System.
func (s *DBSimSystem) Put(m *simtime.Meter, key string, content []byte) error {
	return s.DB.Put(m, key, content)
}

// Get implements System.
func (s *DBSimSystem) Get(m *simtime.Meter, key string, buf []byte) (int, error) {
	return s.DB.Get(m, key, buf)
}

// Delete implements System.
func (s *DBSimSystem) Delete(m *simtime.Meter, key string) error {
	return s.DB.Delete(m, key)
}
