package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blobdb/internal/blob"
	"blobdb/internal/blobserver"
	"blobdb/internal/blobserver/blobclient"
	"blobdb/internal/buffer"
	"blobdb/internal/core"
	"blobdb/internal/shard"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// Fixed engine geometry: a 1 GiB device and a 64 MiB buffer pool in
// every workload, the rest as cmd/blobserved sets it up.
const (
	devicePages = 262144 // 1 GiB of 4 KiB pages
	poolPages   = 16384  // 64 MiB
	ckptPages   = devicePages / 8

	maxInFlight  = 64 // blobserved's default admission
	maxQueueWait = 100 * time.Millisecond
)

// engineOptions configures the engine as blobserved does, except the pool
// and, in write-churn, the log. blobserved gives the log 1/16 of the
// device. The log checkpoints when its segment ring fills, at one 4 KiB
// page per group flush, so a 64 MiB log checkpoints once per ~16k
// commits: one or two per write-churn phase on a 2-core host, too few for
// put_p995_ms to see their stalls. Write-churn's 4 MiB log checkpoints a
// few times a second. The read workloads keep the 64 MiB log, so their
// load never checkpoints and recovery validates the whole data set.
func engineOptions(sp spec) []core.Option {
	return []core.Option{
		core.WithPoolPages(poolPages),
		core.WithLogPages(sp.logPages()),
		core.WithCkptPages(ckptPages),
		core.WithAsyncCommit(true),
		core.WithQueueDepth(storage.DefaultQueueDepth),
	}
}

func (sp spec) logPages() uint64 { return devicePages / sp.logDiv }

// cachedFile is the benchmark's device: a FileDevice whose Sync returns at
// once, as fsync does on tmpfs. The benchmark keeps its files inside its
// checkout, which usually sits on a disk; there fsync waits for the disk,
// and on a 2-core host with a shared virtual disk PUT latency and write
// throughput varied by 30-40% between runs of one seed. The engine still
// issues every Sync, counted here, and reads and writes go through the
// file as before. A crash-reopen abandons the process, not the machine,
// so the page cache still holds every acknowledged write.
type cachedFile struct {
	*storage.FileDevice
	syncs atomic.Int64
}

func openCachedFile(path string) (*cachedFile, error) {
	f, err := storage.OpenFileDevice(path, storage.DefaultPageSize, devicePages, simtime.DefaultNVMe())
	if err != nil {
		return nil, err
	}
	return &cachedFile{FileDevice: f}, nil
}

// Sync implements storage.Device.
func (d *cachedFile) Sync(*simtime.Meter) error {
	d.syncs.Add(1)
	return nil
}

// engine is one open database served over loopback HTTP to its clients.
type engine struct {
	path    string
	fdev    *cachedFile
	tdev    *timedDevice // traced runs only
	db      *core.DB
	cluster *shard.Cluster
	bs      *blobserver.Server
	srv     *http.Server
	served  chan struct{}
	clients []*client
}

type client struct {
	bc *blobclient.Client
	tr *http.Transport
}

// openEngine creates a fresh database file at path and serves it to n
// clients, each on one keep-alive HTTP/1.1 connection. With a tracer the
// device, the handler and the transports are wrapped for spans.
func openEngine(sp spec, path string, n int, tr *tracer) (*engine, error) {
	fdev, err := openCachedFile(path)
	if err != nil {
		return nil, err
	}
	e := &engine{path: path, fdev: fdev}
	var dev storage.Device = fdev
	if tr != nil {
		e.tdev = &timedDevice{cachedFile: fdev, t: tr, lay: layout{walEnd: storage.PID(sp.logPages()), ckptEnd: storage.PID(sp.logPages() + ckptPages)}}
		dev = e.tdev
	}
	e.db, _, err = core.RecoverDevice(dev, nil, engineOptions(sp)...)
	if err != nil {
		fdev.Close()
		return nil, fmt.Errorf("open engine: %w", err)
	}
	e.cluster = shard.New([]*core.DB{e.db}, shard.Options{MaxInFlightPerShard: maxInFlight, MaxQueueWait: maxQueueWait})
	e.bs = blobserver.New(blobserver.Config{Cluster: e.cluster, MaxInFlight: maxInFlight, MaxQueueWait: maxQueueWait})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.db.CloseCommitter()
		fdev.Close()
		return nil, err
	}
	var h http.Handler = e.bs
	if tr != nil {
		h = tr.tracedHandler(e.bs)
	}
	e.srv = &http.Server{Handler: h}
	blobserver.ConfigureHTTPServer(e.srv)
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < n; i++ {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		var rt http.RoundTripper = t
		if tr != nil {
			rt = spanTransport{t}
		}
		e.clients = append(e.clients, &client{
			bc: blobclient.New(base, blobclient.WithHTTPClient(&http.Client{Transport: rt}), blobclient.WithTimeout(time.Minute)),
			tr: t,
		})
	}
	if err := e.clients[0].bc.CreateRelation(context.Background(), relation); err != nil {
		e.close()
		return nil, fmt.Errorf("create relation: %w", err)
	}
	return e, nil
}

func (e *engine) stopServing() {
	e.srv.Close()
	<-e.served
	for _, c := range e.clients {
		c.tr.CloseIdleConnections()
	}
}

// close shuts the engine down cleanly and deletes its file.
func (e *engine) close() error {
	e.stopServing()
	err := e.cluster.Close()
	if cerr := e.fdev.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(e.path); err == nil {
		err = rerr
	}
	return err
}

// crash abandons the engine as kill -9 would: no drain, no checkpoint.
// Closing the file first makes any write still in flight fail instead of
// reaching the image; stopping the committer afterwards only frees its
// goroutine.
func (e *engine) crash() {
	e.stopServing()
	e.fdev.Close()
	e.db.CloseCommitter()
}

// checker collects output-check failures; every one names its key.
type checker struct {
	mu       sync.Mutex
	failures []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *checker) failed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.failures)
}

// wireOp issues o through blobclient and checks the reply against the
// acknowledged state, which it updates on success. It returns the
// client-observed latency: request through the last body byte; the
// checks are not timed.
func (cl *client) wireOp(ctx context.Context, d *dataset, state []keyState, o op, chk *checker) time.Duration {
	key := keyName(o.key)
	switch o.kind {
	case opGet:
		start := time.Now()
		body, etag, err := cl.bc.Get(ctx, relation, key)
		lat := time.Since(start)
		checkGet(chk, key, state[o.key], body, etag, err)
		return lat
	case opPut:
		start := time.Now()
		etag, err := cl.bc.PutReader(ctx, relation, key, d.reader(o.want), int64(o.want.size))
		lat := time.Since(start)
		switch {
		case err != nil:
			chk.fail("put %s: %v", key, err)
		case etag != o.etag:
			chk.fail("put %s: ETag %s, want %s", key, etag, o.etag)
		default:
			state[o.key] = keyState{live: true, content: o.want, etag: o.etag}
		}
		return lat
	default:
		start := time.Now()
		err := cl.bc.Delete(ctx, relation, key)
		lat := time.Since(start)
		if err != nil {
			chk.fail("delete %s: %v", key, err)
		} else {
			state[o.key].live = false
		}
		return lat
	}
}

// checkGet verifies one GET reply: a live key's body must hash to the
// returned ETag and that ETag must be the one last acknowledged; a
// deleted key must answer 404.
func checkGet(chk *checker, key string, want keyState, body []byte, etag string, err error) {
	if !want.live {
		if !blobclient.IsNotFound(err) {
			chk.fail("get %s: deleted key answered %v, want 404", key, errOrOK(err))
		}
		return
	}
	if err != nil {
		chk.fail("get %s: %v", key, err)
		return
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != etag {
		chk.fail("get %s: body SHA-256 %s does not match ETag %s", key, got, etag)
	} else if etag != want.etag {
		chk.fail("get %s: ETag %s, acknowledged %s", key, etag, want.etag)
	}
}

func errOrOK(err error) any {
	if err == nil {
		return "200"
	}
	return err
}

// samples holds the client-observed latencies of a phase, in ms.
type samples struct {
	get, put, del []float64
	putBytes      int64
	ops           int
	// ticks are the process counters read once a second during a timed
	// phase.
	ticks []tick
}

func (s *samples) add(o op, lat time.Duration) {
	x := float64(lat) / float64(time.Millisecond)
	s.ops++
	switch o.kind {
	case opGet:
		s.get = append(s.get, x)
	case opPut:
		s.put = append(s.put, x)
		s.putBytes += int64(o.want.size)
	default:
		s.del = append(s.del, x)
	}
}

func (s *samples) merge(o *samples) {
	s.get = append(s.get, o.get...)
	s.put = append(s.put, o.put...)
	s.del = append(s.del, o.del...)
	s.putBytes += o.putBytes
	s.ops += o.ops
}

// perClient runs fn on one goroutine per client and merges their samples.
func (e *engine) perClient(fn func(c int, cl *client, s *samples)) *samples {
	out := make([]samples, len(e.clients))
	var wg sync.WaitGroup
	for c, cl := range e.clients {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			fn(c, cl, &out[c])
		}(c, cl)
	}
	wg.Wait()
	all := &samples{}
	for i := range out {
		all.merge(&out[i])
	}
	return all
}

// load stores the data set through the wire (version 0 of every key) and
// then GETs every key once, which warms the pool. It returns the load's
// PUT samples.
func (e *engine) load(d *dataset, state []keyState, chk *checker) *samples {
	ctx := context.Background()
	puts := e.perClient(func(c int, cl *client, s *samples) {
		for _, k := range d.loadKeys(c) {
			ct := content{key: k, size: d.sizes[k]}
			o := op{kind: opPut, key: k, want: ct, etag: d.etag(ct)}
			s.add(o, cl.wireOp(ctx, d, state, o, chk))
		}
	})
	e.perClient(func(c int, cl *client, s *samples) {
		for _, k := range d.loadKeys(c) {
			o := op{kind: opGet, key: k}
			s.add(o, cl.wireOp(ctx, d, state, o, chk))
		}
	})
	return puts
}

// phase runs every client closed-loop on its op stream until dur has
// passed or, when maxOps > 0, each client has issued maxOps ops. With a
// tracer on, each call is a root span.
func (e *engine) phase(d *dataset, state []keyState, seed, salt uint64, dur time.Duration, maxOps int, tr *tracer, chk *checker) *samples {
	var done atomic.Int64
	ticks := []tick{readTick(0)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ticks = append(ticks, readTick(done.Load()))
			}
		}
	}()
	deadline := time.Now().Add(dur)
	s := e.perClient(func(c int, cl *client, s *samples) {
		st := newStream(d, state, seed, c, salt, int(salt))
		ctx := context.Background()
		for (maxOps <= 0 || s.ops < maxOps) && (maxOps > 0 || time.Now().Before(deadline)) {
			o := st.next()
			if tr == nil || !tr.on.Load() {
				s.add(o, cl.wireOp(ctx, d, state, o, chk))
			} else {
				id := tr.newID()
				start := tr.now()
				lat := cl.wireOp(withSpan(ctx, id), d, state, o, chk)
				tr.record(id, 0, "client."+o.kind.String(), start)
				s.add(o, lat)
			}
			done.Add(1)
		}
	})
	close(stop)
	wg.Wait()
	s.ticks = append(ticks, readTick(done.Load()))
	return s
}

// verifyEngine checks that db holds exactly the acknowledged state: every
// live key with its acknowledged ETag and size, no deleted key. It
// returns the live bytes it found.
func verifyEngine(db *core.DB, d *dataset, state []keyState, chk *checker) int64 {
	found := map[string]*blob.State{}
	tx := db.Begin(nil)
	err := tx.Scan(relation, nil, func(key, _ []byte, st *blob.State) bool {
		found[string(key)] = st
		return true
	})
	tx.Commit()
	if err != nil {
		chk.fail("scan after recovery: %v", err)
		return 0
	}
	var live int64
	for k, want := range state {
		st, ok := found[keyName(k)]
		switch {
		case want.live && !ok:
			chk.fail("recovery lost acknowledged key %s", keyName(k))
		case want.live && (st == nil || st.ETag() != want.etag || st.Size != uint64(want.content.size)):
			chk.fail("recovered key %s does not hold its acknowledged content %s", keyName(k), want.etag)
		case !want.live && ok:
			chk.fail("recovered key %s was deleted but is present", keyName(k))
		case want.live:
			live += int64(st.Size)
		}
	}
	if len(found) > len(state) {
		chk.fail("recovery holds %d keys, the benchmark wrote %d", len(found), len(state))
	}
	return live
}

// undoDevice keeps the before-image of every page written through it, so
// restore can return the file to the crash image. Each timed recovery
// then starts from the same image: core.RecoverDevice ends with a
// checkpoint that would otherwise turn every later reopen into a
// checkpoint-only recovery.
type undoDevice struct {
	*cachedFile
	mu     sync.Mutex
	before map[storage.PID][]byte
}

func (d *undoDevice) save(pid storage.PID, n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.before == nil {
		d.before = map[storage.PID][]byte{}
	}
	ps := d.PageSize()
	for i := 0; i < n; i++ {
		p := pid + storage.PID(i)
		if _, ok := d.before[p]; ok {
			continue
		}
		buf := make([]byte, ps)
		if err := d.cachedFile.ReadPages(nil, p, 1, buf); err != nil {
			return err
		}
		d.before[p] = buf
	}
	return nil
}

func (d *undoDevice) WritePages(m *simtime.Meter, pid storage.PID, n int, buf []byte) error {
	if err := d.save(pid, n); err != nil {
		return err
	}
	return d.cachedFile.WritePages(m, pid, n, buf)
}

func (d *undoDevice) WritePagesVec(m *simtime.Meter, segs []storage.Seg) error {
	for _, s := range segs {
		if err := d.save(s.PID, s.N); err != nil {
			return err
		}
	}
	return d.cachedFile.WritePagesVec(m, segs)
}

// restore writes every saved before-image back.
func (d *undoDevice) restore() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for pid, buf := range d.before {
		if err := d.cachedFile.WritePages(nil, pid, 1, buf); err != nil {
			return err
		}
	}
	d.before = nil
	return nil
}

// recovery is what the crash-reopen step measured.
type recovery struct {
	seconds   []float64
	report    core.RecoveryReport
	liveBytes int64
}

// recoverRepeatedly reopens the crashed image at path with
// core.RecoverDevice until at least five reopens and two seconds have
// passed (at most fifteen reopens), restoring the crash image after each
// so every reopen recovers the same image. The first reopen is checked
// against the acknowledged state.
func recoverRepeatedly(path string, d *dataset, state []keyState, chk *checker) (*recovery, error) {
	rec := &recovery{}
	var total float64
	for len(rec.seconds) < 5 || (total < 2 && len(rec.seconds) < 15) {
		fdev, err := openCachedFile(path)
		if err != nil {
			return nil, err
		}
		u := &undoDevice{cachedFile: fdev}
		start := time.Now()
		db, rep, err := core.RecoverDevice(u, nil, engineOptions(d.spec)...)
		secs := time.Since(start).Seconds()
		if err != nil {
			fdev.Close()
			return nil, fmt.Errorf("recover: %w", err)
		}
		if len(rec.seconds) == 0 {
			rec.report = *rep
			rec.liveBytes = verifyEngine(db, d, state, chk)
		}
		err = db.CloseCommitter()
		if rerr := u.restore(); err == nil {
			err = rerr
		}
		if cerr := fdev.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("close recovered engine: %w", err)
		}
		rec.seconds = append(rec.seconds, secs)
		total += secs
	}
	return rec, nil
}

// engineOp runs o directly against the engine's public core/blob calls,
// recording a span per call, and checks it like wireOp does.
func engineOp(db *core.DB, d *dataset, state []keyState, o op, tr *tracer, chk *checker) {
	ctx := context.Background()
	key := keyName(o.key)
	root := tr.newID()
	t0 := tr.now()
	step := func(name string, fn func() error) error {
		s := tr.now()
		err := fn()
		tr.record(tr.newID(), root, name, s)
		return err
	}
	var tx *core.Txn
	step("core.begin", func() error { tx = db.BeginCtx(ctx, nil); return nil })
	switch o.kind {
	case opGet:
		var st *blob.State
		err := step("core.blob_state", func() (err error) { st, err = tx.BlobState(relation, []byte(key)); return err })
		want := state[o.key]
		switch {
		case !want.live:
			if !errors.Is(err, core.ErrNotFound) {
				chk.fail("engine get %s: deleted key answered %v, want not found", key, errOrOK(err))
			}
		case err != nil:
			chk.fail("engine get %s: %v", key, err)
		case st.ETag() != want.etag:
			chk.fail("engine get %s: ETag %s, acknowledged %s", key, st.ETag(), want.etag)
		default:
			err = step("core.read_blob", func() error {
				return tx.ReadBlob(relation, []byte(key), func(v *buffer.BlobView) error {
					n, err := v.WriteRangeTo(io.Discard, 0, int64(v.Len()))
					if err == nil && n != int64(want.content.size) {
						err = fmt.Errorf("read %d bytes, want %d", n, want.content.size)
					}
					return err
				})
			})
			if err != nil {
				chk.fail("engine read %s: %v", key, err)
			}
		}
		step("core.commit", tx.Commit)
		tr.record(root, 0, "core.get", t0)
	case opPut:
		var w *blob.Writer
		err := step("core.create_blob", func() (err error) { w, err = tx.CreateBlob(ctx, relation, []byte(key)); return err })
		if err == nil {
			err = step("blob.write", func() error {
				if _, err := w.ReadFrom(d.reader(o.want)); err != nil {
					w.Abort()
					return err
				}
				return w.Close()
			})
		}
		if err != nil {
			tx.Abort()
			chk.fail("engine put %s: %v", key, err)
			return
		}
		etag := w.State().ETag()
		if err := step("core.commit_wait", tx.CommitWait); err != nil {
			chk.fail("engine put %s: commit: %v", key, err)
			return
		}
		tr.record(root, 0, "core.put", t0)
		if etag != o.etag {
			chk.fail("engine put %s: ETag %s, want %s", key, etag, o.etag)
			return
		}
		state[o.key] = keyState{live: true, content: o.want, etag: o.etag}
	default:
		err := step("core.delete_blob", func() error { return tx.DeleteBlob(relation, []byte(key)) })
		if err == nil {
			err = step("core.commit_wait", tx.CommitWait)
		} else {
			tx.Abort()
		}
		if err != nil {
			chk.fail("engine delete %s: %v", key, err)
			return
		}
		tr.record(root, 0, "core.delete", t0)
		state[o.key].live = false
	}
}

func tempDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "perfbench-")
}

func dbPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("setup%d.blobdb", i)) }
