package blobserver

// Replication over HTTP: the primary side of the log-shipping protocol
// (/repl/v1/*, tailed by repl.HTTPSource) and the replica serving mode.
//
// Primary endpoints (also served by a promoted replica, so a new replica
// can chain off the new primary):
//
//	GET /repl/v1/status?shard=i            durable / truncated / last LSNs (JSON)
//	GET /repl/v1/pull?after=N&shard=i      durable records above N (JSON repl.Pull)
//	GET /repl/v1/snapshot?shard=i          full logical image (JSON repl.Snapshot)
//	GET /repl/v1/blob/{rel}/{key}          current committed BLOB content + ETag (410: none)
//
// Replica mode (Config.Replica set, until promotion):
//
//	GET  /v1/{rel}/{key}     served from the replica engine; the response
//	                         carries X-Replica-Applied-LSN, and a request
//	                         X-Min-LSN above that horizon is refused with
//	                         503 + Retry-After (a staleness miss — the
//	                         client retries the primary)
//	PUT/DELETE/POST          421 Misdirected Request + X-Primary-Base-URL
//	POST /admin/v1/promote   end replication; the server becomes a primary
//
// The staleness contract matches repl.Replica.AppliedLSN: for any key
// whose last committed update is at or below the advertised horizon, the
// replica's ETag is byte-identical to the primary's.

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"blobdb/internal/core"
	"blobdb/internal/repl"
)

// replHeaderAppliedLSN advertises a replica's staleness horizon on reads.
const replHeaderAppliedLSN = "X-Replica-Applied-LSN"

// replHeaderMinLSN lets a client demand a freshness floor on replica reads.
const replHeaderMinLSN = "X-Min-LSN"

// replHeaderPrimary points a misdirected writer at the primary.
const replHeaderPrimary = "X-Primary-Base-URL"

// serving reports whether this server is currently a read replica.
func (s *Server) serving() bool { return s.replica != nil && !s.replica.Promoted() }

// rejectReplicaWrite answers a mutating request on a non-promoted replica
// with 421 Misdirected Request: the client must re-issue it against the
// primary (advertised in X-Primary-Base-URL).
func (s *Server) rejectReplicaWrite(w http.ResponseWriter) bool {
	if !s.serving() {
		return false
	}
	if s.primaryURL != "" {
		w.Header().Set(replHeaderPrimary, s.primaryURL)
	}
	http.Error(w, "read replica: writes go to the primary", http.StatusMisdirectedRequest)
	return true
}

// rejectStaleRead stamps replica reads with the applied-LSN horizon and
// enforces a client's X-Min-LSN freshness floor: a replica that has not
// caught up to the floor sheds the read with 503 so the client falls back
// to the primary.
func (s *Server) rejectStaleRead(w http.ResponseWriter, r *http.Request) bool {
	if !s.serving() {
		return false
	}
	applied := s.replica.AppliedLSN()
	w.Header().Set(replHeaderAppliedLSN, strconv.FormatUint(applied, 10))
	if min := r.Header.Get(replHeaderMinLSN); min != "" {
		floor, err := strconv.ParseUint(min, 10, 64)
		if err != nil {
			http.Error(w, "malformed "+replHeaderMinLSN, http.StatusBadRequest)
			return true
		}
		if applied < floor {
			w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
			http.Error(w, "replica behind requested freshness floor", http.StatusServiceUnavailable)
			return true
		}
	}
	return false
}

// handlePromote ends replication: the engine stops following its primary
// and this server starts accepting writes. Idempotent; a primary-mode
// server answers 409.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.replica == nil {
		http.Error(w, "not a replica", http.StatusConflict)
		return
	}
	s.replica.Promote()
	writeJSON(w, http.StatusOK, map[string]uint64{"applied_lsn": s.replica.AppliedLSN()})
}

// replShard resolves the ?shard=i query (default 0) to that shard's engine.
// Replication is per shard: each shard's WAL is its own stream.
func (s *Server) replShard(w http.ResponseWriter, r *http.Request) (*core.DB, bool) {
	if s.serving() {
		// A tailing replica's WAL holds replica-local LSNs, not the
		// primary's stream; chaining is only valid after promotion.
		http.Error(w, "replica does not serve the replication stream", http.StatusConflict)
		return nil, false
	}
	id := 0
	if v := r.URL.Query().Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "malformed shard", http.StatusBadRequest)
			return nil, false
		}
		id = n
	}
	sh := s.cluster.Shard(id)
	if sh == nil || sh.Down() {
		http.Error(w, "no such shard", http.StatusNotFound)
		return nil, false
	}
	return sh.DB(), true
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	db, ok := s.replShard(w, r)
	if !ok {
		return
	}
	m := db.WAL()
	writeJSON(w, http.StatusOK, map[string]uint64{
		"durable_lsn":   m.DurableLSN(),
		"truncated_lsn": m.TruncatedLSN(),
		"last_lsn":      m.LastLSN(),
	})
}

func (s *Server) handleReplPull(w http.ResponseWriter, r *http.Request) {
	db, ok := s.replShard(w, r)
	if !ok {
		return
	}
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		http.Error(w, "malformed after", http.StatusBadRequest)
		return
	}
	p, err := repl.NewEngineSource(db).Pull(r.Context(), after)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	db, ok := s.replShard(w, r)
	if !ok {
		return
	}
	snap, err := repl.NewEngineSource(db).Snapshot(r.Context())
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleReplBlob(w http.ResponseWriter, r *http.Request) {
	db, ok := s.replShard(w, r)
	if !ok {
		return
	}
	// The body streams from the primary's pinned view with its length
	// declared, so the replica can tell a cut-short body from a whole one.
	rel, key := r.PathValue("rel"), r.PathValue("key")
	sent := false
	err := repl.NewEngineSource(db).FetchBlob(r.Context(), rel, []byte(key), func(etag string, size uint64, body io.Reader) error {
		sent = true
		w.Header().Set("ETag", `"`+etag+`"`)
		w.Header().Set("Content-Length", strconv.FormatUint(size, 10))
		_, err := io.Copy(w, body)
		return err
	})
	switch {
	case errors.Is(err, core.ErrBlobVanished):
		http.Error(w, err.Error(), http.StatusGone)
	case err != nil && !sent:
		httpError(w, err)
	}
}
