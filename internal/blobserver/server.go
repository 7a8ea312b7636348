// Package blobserver is the read-write network surface of the engine: an
// HTTP/1.1 (+h2c) blob service over core.DB, the production counterpart of
// the paper's thesis that the DBMS can *be* the file layer (§III-E, §V).
//
// API (all blob bodies are raw bytes):
//
//	GET    /v1/                    list relations (JSON)
//	POST   /v1/{relation}          create a relation
//	GET    /v1/{relation}          list keys with size and ETag (JSON)
//	GET    /v1/{relation}/{key}    read a BLOB (Range and If-None-Match honored)
//	PUT    /v1/{relation}/{key}    store a BLOB (one transaction per request)
//	DELETE /v1/{relation}/{key}    delete a BLOB
//	GET    /healthz                liveness (503 while draining)
//	GET    /debug/vars             expvar-style counters and pipeline stats
//
// Reads are zero-copy (§IV-B): the transaction's aliased BlobView is
// written to the connection as one large write per extent span — a
// ranged response of a 10 MB blob never materializes the blob in server
// memory and never runs a per-chunk copy loop — and the strong ETag is
// the Blob State's SHA-256 (blob.State.ETag), so validation costs no
// content I/O at all. Writes
// stream too: PUT pipes the request body into a blob.Writer
// (Txn.CreateBlob), which allocates extents as bytes arrive and flushes
// completed extents in the background, so peak per-request buffering is
// bounded by the largest extent — never the blob. Each write runs one
// transaction per request, carries the request context (a cancelled
// upload aborts the transaction and stops waiting for durability), and
// acknowledges through Txn.Commit, so concurrent PUTs are batched by the
// group committer and share WAL syncs. Admission control
// bounds in-flight requests and sheds load with 503 + Retry-After once
// the bounded wait expires.
package blobserver

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"blobdb/internal/buffer"
	"blobdb/internal/core"
	"blobdb/internal/repl"
	"blobdb/internal/shard"
)

// Config wires a Server.
type Config struct {
	// DB is the open engine; required unless Cluster is set. Concurrent
	// PUTs share WAL syncs through its group committer.
	DB *core.DB
	// Cluster, when set, serves the API over a sharded topology: single-key
	// operations route to the owning shard, relation creates fan out, and
	// key listings are scatter-gather merges. When nil, DB is wrapped as a
	// one-shard cluster and the server behaves exactly as before.
	Cluster *shard.Cluster
	// MaxInFlight bounds concurrently served requests (default 64).
	MaxInFlight int
	// MaxQueueWait bounds how long an over-limit request may wait for a
	// slot before being rejected with 503 (default 100ms).
	MaxQueueWait time.Duration
	// RetryAfter is the hint returned with 503 responses (default 1s).
	RetryAfter time.Duration
	// MaxBlobBytes bounds a single PUT body (default 256 MB).
	MaxBlobBytes int64
	// Replica, when set, serves in read-replica mode: GETs are served from
	// the replica's engine and carry X-Replica-Applied-LSN (the staleness
	// horizon); writes are rejected with 421 Misdirected Request pointing
	// at PrimaryURL until the replica is promoted (POST /admin/v1/promote).
	// DB/Cluster may be left nil — the replica's engine is used.
	Replica *repl.Replica
	// PrimaryURL advertises the write endpoint in replica-mode 421
	// responses (X-Primary-Base-URL header).
	PrimaryURL string
	// ExtraVars adds named values to /debug/vars — the hook maintenance
	// daemons (the defragmenter) use to publish progress counters without
	// the server importing them.
	ExtraVars map[string]expvar.Var
}

// Server serves the blob API over a shard.Cluster (possibly the
// degenerate one-shard cluster wrapping a single core.DB). Create with
// New; it implements http.Handler.
type Server struct {
	cluster *shard.Cluster
	adm     *admission
	metrics *metrics
	mux     *http.ServeMux

	retryAfter   time.Duration
	maxBlobBytes int64

	replica    *repl.Replica // nil: primary mode
	primaryURL string
}

// New builds a Server over cfg.Cluster (or cfg.DB wrapped as one shard).
func New(cfg Config) *Server {
	if cfg.Cluster == nil && cfg.DB == nil && cfg.Replica != nil {
		cfg.DB = cfg.Replica.DB()
	}
	if cfg.Cluster == nil {
		if cfg.DB == nil {
			panic("blobserver: Config.DB, Config.Cluster, or Config.Replica is required")
		}
		cfg.Cluster = shard.Single(cfg.DB)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxQueueWait <= 0 {
		cfg.MaxQueueWait = 100 * time.Millisecond
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBlobBytes <= 0 {
		cfg.MaxBlobBytes = 256 << 20
	}
	s := &Server{
		cluster:      cfg.Cluster,
		adm:          newAdmission(cfg.MaxInFlight, cfg.MaxQueueWait),
		retryAfter:   cfg.RetryAfter,
		maxBlobBytes: cfg.MaxBlobBytes,
		replica:      cfg.Replica,
		primaryURL:   cfg.PrimaryURL,
	}
	s.metrics = newMetrics(cfg.Cluster, s.adm)
	for name, v := range cfg.ExtraVars {
		s.metrics.vars.Set(name, v)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/{$}", s.route("rel_list", s.handleListRelations))
	s.mux.HandleFunc("POST /v1/{rel}", s.route("rel_create", s.handleCreateRelation))
	s.mux.HandleFunc("GET /v1/{rel}", s.route("key_list", s.handleListKeys))
	s.mux.HandleFunc("GET /v1/{rel}/{key...}", s.route("blob_get", s.handleGetBlob))
	s.mux.HandleFunc("PUT /v1/{rel}/{key...}", s.route("blob_put", s.handlePutBlob))
	s.mux.HandleFunc("DELETE /v1/{rel}/{key...}", s.route("blob_delete", s.handleDeleteBlob))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/vars", s.metrics.serveVars)
	// Log-shipping replication: the pull API a downstream repl.HTTPSource
	// tails, and the explicit promotion switch for replica-mode servers.
	s.mux.HandleFunc("GET /repl/v1/status", s.route("repl_status", s.handleReplStatus))
	s.mux.HandleFunc("GET /repl/v1/pull", s.route("repl_pull", s.handleReplPull))
	s.mux.HandleFunc("GET /repl/v1/snapshot", s.route("repl_snapshot", s.handleReplSnapshot))
	s.mux.HandleFunc("GET /repl/v1/blob/{rel}/{key...}", s.route("repl_blob", s.handleReplBlob))
	s.mux.HandleFunc("POST /admin/v1/promote", s.handlePromote)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining flips the health endpoint to 503 so load balancers stop
// sending traffic while http.Server.Shutdown drains in-flight requests.
func (s *Server) SetDraining(v bool) { s.adm.setDraining(v) }

// route wraps a handler with admission control and per-route counters.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.metrics.routeMetrics(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !s.adm.acquire(r.Context()) {
			s.metrics.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
			http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
			rm.observe(http.StatusServiceUnavailable, time.Since(start))
			return
		}
		defer s.adm.release()
		s.metrics.admitted.Add(1)
		rw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(rw, r)
		s.metrics.bytesOut.Add(rw.bytes)
		rm.observe(rw.status, time.Since(start))
	}
}

// statusWriter records the response status and body size for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.adm.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// httpError is the single place engine errors map onto status codes: the
// typed sentinels from internal/core cover the 4xx taxonomy, oversized
// bodies (http.MaxBytesReader tripping, or the engine's own tier-table
// bound) become 413, and a cancelled request context gets 499-style
// silence — the client is gone, nobody reads the response.
func httpError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client disconnected or timed out; nothing useful to send.
	case errors.Is(err, core.ErrRelationNotFound), errors.Is(err, core.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, core.ErrRelationExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.As(err, &tooLarge), errors.Is(err, core.ErrBlobTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// shardError maps routing-layer rejections onto the wire: a fenced or
// saturated shard is 503 + Retry-After for exactly its keyspace slice —
// the isolation contract — while everything else falls through to the
// engine-error taxonomy.
func (s *Server) shardError(w http.ResponseWriter, err error) {
	if errors.Is(err, shard.ErrShardBusy) || errors.Is(err, shard.ErrShardDown) {
		s.metrics.shardRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	httpError(w, err)
}

func (s *Server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	rels := s.cluster.Relations()
	sort.Strings(rels)
	writeJSON(w, http.StatusOK, map[string][]string{"relations": rels})
}

func (s *Server) handleCreateRelation(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	// Relations are global: the create fans out to every live shard so any
	// key of the relation can route anywhere.
	if err := s.cluster.CreateRelation(r.PathValue("rel")); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// KeyInfo is one row of a key listing.
type KeyInfo struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
	ETag string `json:"etag,omitempty"` // BLOB columns only
}

func (s *Server) handleListKeys(w http.ResponseWriter, r *http.Request) {
	// Scatter-gather: per-shard cursors merged into one globally ordered,
	// duplicate-free stream. The fan-out latency feeds the router metrics.
	start := time.Now()
	keys := []KeyInfo{}
	err := s.cluster.ListKeys(r.Context(), r.PathValue("rel"), []byte(r.URL.Query().Get("from")), func(e shard.Entry) bool {
		keys = append(keys, KeyInfo{Key: e.Key, Size: e.Size, ETag: e.ETag})
		return true
	})
	s.metrics.observeScatter(time.Since(start))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]KeyInfo{"keys": keys})
}

func (s *Server) handleGetBlob(w http.ResponseWriter, r *http.Request) {
	if s.rejectStaleRead(w, r) {
		return
	}
	rel, key := r.PathValue("rel"), r.PathValue("key")
	sh, release, err := s.cluster.Acquire(r.Context(), rel, []byte(key))
	if err != nil {
		s.shardError(w, err)
		return
	}
	defer release()
	tx := sh.DB().BeginCtx(r.Context(), nil)
	defer tx.Commit() // read-only
	st, err := tx.BlobState(rel, []byte(key))
	if errors.Is(err, core.ErrNotBlob) {
		// Inline column: serve the bytes directly.
		v, gerr := tx.Get(rel, []byte(key))
		if gerr != nil {
			httpError(w, gerr)
			return
		}
		// A declared length lets clients read the body into one buffer;
		// without it a value over net/http's 2 KiB pre-chunking buffer goes out
		// chunked.
		w.Header().Set("Content-Length", strconv.Itoa(len(v)))
		w.Write(v)
		return
	}
	if err != nil {
		httpError(w, err)
		return
	}
	// Strong validator from the Blob State — no content I/O needed for
	// If-None-Match revalidation.
	etag := `"` + st.ETag() + `"`
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	err = tx.ReadState(st, func(view *buffer.BlobView) error {
		// Zero-copy read path (§IV-B): the BlobView gathers the pinned
		// extent frames — worker-local aliasing area when the blob fits,
		// shared-area reservation otherwise — and the (range-trimmed)
		// response goes out as one large write per extent span, straight
		// from pool memory. The frames stay pinned for exactly the
		// lifetime of this callback: ReadBlob closes the handle when it
		// returns, on success, client disconnect, and error alike.
		s.serveView(w, r, view)
		return nil
	})
	if err != nil {
		httpError(w, err)
	}
}

// serveView writes a blob GET response from the aliased view with one
// zero-copy write per extent span. Single-interval Range requests are
// trimmed and answered 206; syntactically valid but unsatisfiable ranges
// get 416; multi-interval ranges (rare — multipart responses) fall back
// to the stdlib's buffered copier, and the fallback is counted so
// copies-per-read stays observable at /debug/vars.
func (s *Server) serveView(w http.ResponseWriter, r *http.Request, view *buffer.BlobView) {
	size := int64(view.Len())
	off, n := int64(0), size
	status := http.StatusOK
	if spec := r.Header.Get("Range"); spec != "" {
		if strings.Contains(spec, ",") {
			s.metrics.getFallback.Add(1)
			http.ServeContent(w, r, "", time.Time{}, io.NewSectionReader(view, 0, size))
			return
		}
		var ok bool
		off, n, ok = parseRange(spec, size)
		if !ok {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
			http.Error(w, "invalid range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, size))
		status = http.StatusPartialContent
	}
	w.Header().Set("Accept-Ranges", "bytes")
	if w.Header().Get("Content-Type") == "" {
		var sniff [512]byte
		sn := view.CopyTo(sniff[:], 0)
		w.Header().Set("Content-Type", http.DetectContentType(sniff[:sn]))
	}
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.WriteHeader(status)
	if r.Method == http.MethodHead {
		return
	}
	s.metrics.getZeroCopy.Add(1)
	if _, err := view.WriteRangeTo(w, off, n); err != nil {
		// The client hung up mid-body. Nothing useful to send; the read
		// handle (pins + aliasing area) is released by ReadBlob on return.
		s.metrics.getAborted.Add(1)
	}
}

// etagMatch reports whether the If-None-Match header value matches etag
// using the weak comparison (RFC 9110 §13.1.2: W/ prefixes ignored).
func etagMatch(header, etag string) bool {
	etag = strings.TrimPrefix(etag, "W/")
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" {
			return true
		}
		if c = strings.TrimPrefix(c, "W/"); c == etag && c != "" {
			return true
		}
	}
	return false
}

// parseRange parses a single-interval Range header ("bytes=a-b",
// "bytes=a-", "bytes=-k") against size, returning the byte offset and
// count. ok=false means malformed or unsatisfiable (416); callers route
// multi-interval specs elsewhere before calling this.
func parseRange(spec string, size int64) (off, n int64, ok bool) {
	spec, found := strings.CutPrefix(spec, "bytes=")
	if !found {
		return 0, 0, false
	}
	lo, hi, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false
	}
	if lo == "" {
		// Suffix form: the final k bytes.
		k, err := strconv.ParseInt(hi, 10, 64)
		if err != nil || k <= 0 {
			return 0, 0, false
		}
		if k > size {
			k = size
		}
		return size - k, k, true
	}
	start, err := strconv.ParseInt(lo, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, false
	}
	if hi == "" {
		return start, size - start, true
	}
	end, err := strconv.ParseInt(hi, 10, 64)
	if err != nil || end < start {
		return 0, 0, false
	}
	if end >= size {
		end = size - 1
	}
	return start, end - start + 1, true
}

func (s *Server) handlePutBlob(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	rel, key := r.PathValue("rel"), r.PathValue("key")
	ctx := r.Context()
	sh, release, err := s.cluster.Acquire(ctx, rel, []byte(key))
	if err != nil {
		s.shardError(w, err)
		return
	}
	defer release()
	tx := sh.DB().BeginCtx(ctx, nil)
	bw, err := tx.CreateBlob(ctx, rel, []byte(key))
	if err != nil {
		tx.Abort()
		httpError(w, err)
		return
	}
	// Stream the body straight into the writer: extents are allocated as
	// bytes arrive, the SHA-256 runs chunk by chunk, and completed extents
	// flush in the background while the next one fills — the server never
	// buffers more than about one extent of any upload, however large.
	n, err := bw.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBlobBytes))
	s.metrics.bytesIn.Add(n)
	if err == nil {
		err = bw.Close()
	}
	if err != nil {
		bw.Abort()
		tx.Abort()
		httpError(w, err)
		return
	}
	s.metrics.observePutPeak(bw.PeakPinnedBytes())
	st := bw.State()
	// Commit acknowledges only after the group-commit batch carrying
	// this transaction is durable and its extents are flushed; if the
	// client hangs up it stops waiting and the commit finishes unobserved.
	if err := tx.Commit(); err != nil {
		httpError(w, err)
		return
	}
	// The validator comes straight from the sealed State — the streaming
	// writer finished the SHA-256 as the last body chunk arrived.
	w.Header().Set("ETag", `"`+st.ETag()+`"`)
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleDeleteBlob(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	rel, key := r.PathValue("rel"), r.PathValue("key")
	sh, release, err := s.cluster.Acquire(r.Context(), rel, []byte(key))
	if err != nil {
		s.shardError(w, err)
		return
	}
	defer release()
	tx := sh.DB().BeginCtx(r.Context(), nil)
	if err := tx.DeleteBlob(rel, []byte(key)); err != nil {
		tx.Abort()
		httpError(w, err)
		return
	}
	if err := tx.Commit(); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ConfigureHTTPServer applies production defaults to an http.Server about
// to serve this handler: header read timeout, idle timeout, and cleartext
// HTTP/2 (h2c) next to HTTP/1.1 so multiplexed clients can share one
// connection. Body read/write deadlines are left to the caller — blob
// downloads are long-lived by design.
func ConfigureHTTPServer(srv *http.Server) {
	srv.ReadHeaderTimeout = 10 * time.Second
	srv.IdleTimeout = 2 * time.Minute
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	srv.Protocols = p
}

// Cluster returns the shard topology the server routes over.
func (s *Server) Cluster() *shard.Cluster { return s.cluster }

// String describes the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("blobserver(shards=%d max_inflight=%d)", s.cluster.NumShards(), cap(s.adm.sem))
}
