package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// span is one timed interval at a layer boundary. Spans of one request
// share the client span's id as their parent; device spans have none.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while on; writeSpans dumps them at the end
// of the run. All spans are recorded by the benchmark's own wrappers around
// the calls into each layer, never inside the program.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record closes the span id, started at start, now.
func (t *tracer) record(id, parent uint64, name string, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// writeSpans stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries a client span id from the caller through blobclient to
// the transport.
type spanKey struct{}

// spanHeader links the server's handler span to the client span.
const spanHeader = "X-Bench-Span"

// spanTransport stamps the client span id of a traced call on the request.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

// tracedHandler records one span per request around h (the blobserver),
// parented to the client span named by the request header.
func (t *tracer) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(t.newID(), parent, "server."+r.Method, start)
	})
}

// region classes a device page by the engine's layout: [WAL | checkpoint
// | heap].
type region int

const (
	regWAL region = iota
	regCkpt
	regHeap
	numRegions
)

var regionNames = [numRegions]string{"wal", "ckpt", "heap"}

type layout struct{ walEnd, ckptEnd storage.PID }

func (l layout) of(pid storage.PID) region {
	switch {
	case pid < l.walEnd:
		return regWAL
	case pid < l.ckptEnd:
		return regCkpt
	}
	return regHeap
}

// timedDevice wraps the device for traced runs: it counts bytes per
// region always and records a span per call while tracing. It forwards
// the vectored calls too; without them storage.ReadVec would fall back to
// per-extent reads and the traced run would measure another program.
type timedDevice struct {
	*cachedFile
	t       *tracer
	lay     layout
	written [numRegions]atomic.Int64
}

func (d *timedDevice) span(name string, pid storage.PID, start int64) {
	if start >= 0 {
		d.t.record(d.t.newID(), 0, name+"."+regionNames[d.lay.of(pid)], start)
	}
}

func (d *timedDevice) begin() int64 {
	if d.t.on.Load() {
		return d.t.now()
	}
	return -1
}

func (d *timedDevice) ReadPages(m *simtime.Meter, pid storage.PID, n int, buf []byte) error {
	start := d.begin()
	err := d.cachedFile.ReadPages(m, pid, n, buf)
	d.span("dev.read", pid, start)
	return err
}

func (d *timedDevice) WritePages(m *simtime.Meter, pid storage.PID, n int, buf []byte) error {
	d.written[d.lay.of(pid)].Add(int64(n * d.PageSize()))
	start := d.begin()
	err := d.cachedFile.WritePages(m, pid, n, buf)
	d.span("dev.write", pid, start)
	return err
}

func (d *timedDevice) ReadPagesVec(m *simtime.Meter, segs []storage.Seg) error {
	start := d.begin()
	err := d.cachedFile.ReadPagesVec(m, segs)
	if len(segs) > 0 {
		d.span("dev.readv", segs[0].PID, start)
	}
	return err
}

func (d *timedDevice) WritePagesVec(m *simtime.Meter, segs []storage.Seg) error {
	for _, s := range segs {
		d.written[d.lay.of(s.PID)].Add(int64(s.N * d.PageSize()))
	}
	start := d.begin()
	err := d.cachedFile.WritePagesVec(m, segs)
	if len(segs) > 0 {
		d.span("dev.writev", segs[0].PID, start)
	}
	return err
}

func (d *timedDevice) Sync(m *simtime.Meter) error {
	start := d.begin()
	err := d.cachedFile.Sync(m)
	if start >= 0 {
		d.t.record(d.t.newID(), 0, "dev.sync", start)
	}
	return err
}

// withSpan marks ctx so the transport stamps the request with id.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}
