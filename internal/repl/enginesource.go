package repl

import (
	"context"
	"sort"

	"blobdb/internal/blob"
	"blobdb/internal/core"
)

// EngineSource serves the replication protocol straight off an in-process
// primary engine — the transport the crash simulator's failover schedules
// and the unit tests use, and the reference semantics the HTTP transport
// mirrors.
type EngineSource struct {
	db *core.DB
}

// NewEngineSource wraps a primary engine.
func NewEngineSource(db *core.DB) *EngineSource { return &EngineSource{db: db} }

// Pull returns the durable records above after from the primary's live
// segments.
func (s *EngineSource) Pull(_ context.Context, after uint64) (Pull, error) {
	recs, durable, resync, err := s.db.WAL().ReadFrom(nil, after)
	if err != nil {
		return Pull{}, err
	}
	return Pull{Records: recs, Durable: durable, Resync: resync}, nil
}

// FetchBlob streams the primary's current committed content for the key
// from a pinned view (Txn.ReadContent).
func (s *EngineSource) FetchBlob(ctx context.Context, rel string, key []byte, fn core.ContentFn) error {
	tx := s.db.BeginCtx(ctx, nil)
	defer tx.Commit() // read-only
	return tx.ReadContent(rel, key, fn)
}

// Snapshot captures a full logical image. The commit pipeline is held
// while the image is taken so the snapshot LSN (the durable horizon at
// capture) covers every commit the scan can observe; in synchronous-commit
// configurations the caller must quiesce writers instead.
func (s *EngineSource) Snapshot(_ context.Context) (*Snapshot, error) {
	s.db.HoldCommits()
	defer s.db.ReleaseCommits()

	snap := &Snapshot{LSN: s.db.WAL().DurableLSN()}
	rels := s.db.Relations()
	sort.Strings(rels)
	snap.Rels = rels
	tx := s.db.Begin(nil)
	defer tx.Commit() // read-only
	for _, rel := range rels {
		err := tx.Scan(rel, nil, func(key, inline []byte, st *blob.State) bool {
			snap.Entries = append(snap.Entries, Entry{Rel: rel, Key: append([]byte(nil), key...), Row: core.RowOf(inline, st)})
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return snap, nil
}
