// Command perfbench is the repository's benchmark: one process holds the
// engine (core.RecoverDevice on a storage.FileDevice, async group commit,
// configured as cmd/blobserved configures it, with a 1 GiB device and a
// 64 MiB pool; see engineOptions and cachedFile), a blobserver.Server on
// a 127.0.0.1:0 listener, and two closed-loop blobclient clients, each on
// one HTTP/1.1 keep-alive connection. A PUT is acknowledged after
// CommitWait: the WAL group sync and the extent flush.
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 15 --trace 0
//
// Workloads (inputs are generated from --seed):
//
//   - read-hot: 512 keys, 4-256 KiB (about 30 MiB, fits the pool), 100%
//     zipfian GETs. Request CPU, pool hits and aliased views; the device
//     and the WAL stay idle.
//   - read-cold: 1536 keys of 256 KiB (384 MiB, six times the pool), 100%
//     uniform GETs. Eviction, batched extent loads and device reads.
//   - write-churn: each client owns 256 keys of 4 KiB-1 MiB (about
//     100 MiB live), zipfian within its keys: 55% PUT overwrites (a fifth
//     repeat another owned key's content), 15% DELETE, 30% GET. The
//     streaming writer, group commit, WAL syncs, checkpoints, extent flush,
//     dedup and allocator reuse.
//
// Every run sets up the engine (with --trace 0 repeatedly, reporting the
// median), loads the data set through the wire, GETs every key once, runs
// the clients for --seconds, then abandons the engine without drain or
// checkpoint and times core.RecoverDevice on the crashed image (write-churn
// first forces a checkpoint and runs a fixed tail of ops, so the crash
// leaves a log tail of the same length in every run). Every GET
// body is hashed and compared with its ETag and the acknowledged ETag,
// every PUT's ETag with the content's SHA-256, and every acknowledged key
// with the recovered engine; any mismatch fails the run with the key
// named. With --trace 0 the last line reports the end-to-end metrics.
//
// End-to-end metrics (--trace 0):
//
//   - setup_s: engine open, load and warm-up GET pass; median over the
//     set-ups.
//   - throughput_ops_s: median over the timed phase's one-second windows.
//   - get_p50_ms, get_p99_ms: client-observed GET latency through the last
//     body byte.
//   - put_p50_ms, put_p995_ms: the same for PUTs, up to the durable 201.
//     The read-only workloads PUT only while loading and report the loads'
//     PUTs (those of every set-up but the first). The PUT tail is taken at
//     p99.5: about 1% of PUTs take a slow path of several ms, so p99 sits
//     on the edge of that group and moved by up to 80% between runs of
//     read-cold's loads, while p99.5 sits inside it and repeats.
//   - ok_ratio: verified successes over attempts; any failure also fails
//     the run.
//   - cpu_us_per_op, alloc_kb_per_op: process user+sys CPU and heap bytes
//     allocated per op, medians over the one-second windows; both include
//     the load generator.
//   - space_amp: allocator span pages x 4 KiB over live user bytes at the
//     end of the timed phase.
//   - write_amp: device bytes written over user PUT bytes in the timed
//     phase; the read-only workloads report their last load's.
//   - recovery_s: core.RecoverDevice's run time on the crashed image,
//     median over at least five reopens.
//
// With --trace 1 the run measures an untraced phase, a traced phase with
// client, handler and device spans, and an engine-API pass that replays
// the traced op stream against core and blob directly, each for half of
// --seconds; the last line reports the per-layer metrics, and the spans
// are written to <dir>/trace-<workload>-<seed>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"blobdb/internal/storage"
)

const (
	clients = 2
	// Set-ups repeat until there are at least minSetups of them and, in
	// the read-only workloads, which report the loads' PUT latency as
	// theirs, minLoadPuts load PUTs leaving out the first set-up's (it
	// also warms the process).
	minSetups   = 3
	minLoadPuts = 10000
	// tailOps is the number of ops per client a writing workload runs
	// after a forced checkpoint, just before the crash: every run then
	// recovers a log tail of the same length instead of wherever in the
	// checkpoint cycle the timed phase happened to end.
	tailOps = 200
	// runLimit bounds a whole run; past it the run fails instead of
	// hanging.
	runLimit = 170 * time.Second
	// Phase salts: the engine-API pass replays the traced phase's op
	// stream but writes its own content versions.
	saltUntraced = 1
	saltTraced   = 2
	vspaceAPI    = 3
	saltTail     = 4
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failure is a failed check; the run exits non-zero naming it.
type failure struct{ check, detail string }

func (f *failure) Error() string { return f.check + ": " + f.detail }

func main() {
	var (
		name    = flag.String("workload", "", "read-hot, read-cold or write-churn")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 15, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: measure the per-layer metrics instead of the end-to-end ones")
		dir     = flag.String("dir", ".bench_build", "directory for the temporary database files and the span dump")
	)
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload read-hot|read-cold|write-churn --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	tmp, err := tempDir(*dir)
	if err != nil {
		fail(&failure{"setup", err.Error()}, "")
	}
	// The temporary files go on every exit path: normal return, a failed
	// check, a signal, or the run limit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fail(&failure{"signal", s.String()}, tmp)
		case <-time.After(runLimit):
			fail(&failure{"run-limit", fmt.Sprintf("run exceeded %s", runLimit)}, tmp)
		}
	}()

	r := &run{spec: sp, seed: *seed, dur: time.Duration(*seconds) * time.Second, tmp: tmp, dir: *dir}
	var res *result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.endToEnd()
	}
	if err != nil {
		fail(err, tmp)
	}
	os.RemoveAll(tmp)
	out, err := json.Marshal(res)
	if err != nil {
		fail(&failure{"output", err.Error()}, "")
	}
	fmt.Println(string(out))
}

// fail reports a failed check on both outputs, removes the temporary
// files and exits non-zero.
func fail(err error, tmp string) {
	msg := "FAIL " + err.Error()
	fmt.Println(msg)
	fmt.Fprintln(os.Stderr, msg)
	if tmp != "" {
		os.RemoveAll(tmp)
	}
	os.Exit(1)
}

// run is one benchmark invocation.
type run struct {
	spec     spec
	seed     uint64
	dur      time.Duration
	tmp, dir string

	d     *dataset
	state []keyState
	chk   checker
	// attempted counts every wire op the run issued.
	attempted int
}

// setup opens a fresh engine, loads the data set through the wire and
// GETs every key once; it returns the engine, its load samples and how
// long that took.
func (r *run) setup(i int, tr *tracer) (*engine, *samples, float64, error) {
	r.state = make([]keyState, r.spec.keys)
	start := time.Now()
	e, err := openEngine(r.spec, dbPath(r.tmp, i), clients, tr)
	if err != nil {
		return nil, nil, 0, &failure{"setup", err.Error()}
	}
	puts := e.load(r.d, r.state, &r.chk)
	secs := time.Since(start).Seconds()
	r.attempted += 2 * r.spec.keys
	return e, puts, secs, r.check("load")
}

// check turns recorded check failures into a failure naming the phase
// and the first keys that failed.
func (r *run) check(phase string) error {
	n := r.chk.failed()
	if n == 0 {
		return nil
	}
	r.chk.mu.Lock()
	defer r.chk.mu.Unlock()
	first := r.chk.failures
	if len(first) > 5 {
		first = first[:5]
	}
	return &failure{"output-check/" + phase, fmt.Sprintf("%d failed: %q", n, first)}
}

// crashReopen abandons e and times recovery of its image, checking every
// acknowledged key.
func (r *run) crashReopen(e *engine) (*recovery, error) {
	if r.spec.putFrac > 0 {
		if err := e.db.WAL().Checkpoint(nil); err != nil {
			return nil, &failure{"crash-reopen", fmt.Sprintf("checkpoint before the log tail: %v", err)}
		}
		tail := e.phase(r.d, r.state, r.seed, saltTail, 0, tailOps, nil, &r.chk)
		r.attempted += tail.ops
		if err := r.check("log-tail"); err != nil {
			return nil, err
		}
	}
	e.crash()
	rec, err := recoverRepeatedly(e.path, r.d, r.state, &r.chk)
	if err != nil {
		return nil, &failure{"crash-reopen", err.Error()}
	}
	if err := r.check("crash-reopen"); err != nil {
		return nil, err
	}
	return rec, nil
}

func (r *run) endToEnd() (*result, error) {
	r.d = newDataset(r.spec, r.seed, clients)
	var setupSecs []float64
	loadPuts := &samples{}
	var e *engine
	for i := 0; i < minSetups || (r.spec.putFrac == 0 && len(loadPuts.put) < minLoadPuts); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, &failure{"setup", err.Error()}
			}
		}
		var puts *samples
		var secs float64
		var err error
		if e, puts, secs, err = r.setup(i, nil); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, secs)
		if i > 0 {
			loadPuts.merge(puts)
		}
	}
	loadWritten := e.fdev.Stats().BytesWritten()
	a, err := e.snapshot()
	if err != nil {
		return nil, &failure{"counters", err.Error()}
	}
	s := e.phase(r.d, r.state, r.seed, saltUntraced, r.dur, 0, nil, &r.chk)
	b, err := e.snapshot()
	if err != nil {
		return nil, &failure{"counters", err.Error()}
	}
	r.attempted += s.ops
	if err := r.check("timed"); err != nil {
		return nil, err
	}
	if err := r.checkServed(a, b); err != nil {
		return nil, err
	}
	if err := r.checkCheckpoints(a, b); err != nil {
		return nil, err
	}
	spanPages := e.db.Allocator().FragStats().SpanPages
	liveBytes := r.liveBytes()
	rec, err := r.crashReopen(e)
	if err != nil {
		return nil, err
	}

	// The read-only workloads issue no PUT in the timed phase; their PUT
	// latency and write amplification are those of the loads.
	puts, writeAmp := s.put, ratio(float64(b.dev.BytesWritten-a.dev.BytesWritten), float64(s.putBytes))
	if len(s.put) == 0 {
		puts = loadPuts.put
		writeAmp = ratio(float64(loadWritten), float64(r.d.totalBytes()))
	}
	thr, cpu, alloc := perSecond(s.ticks)
	m := map[string]float64{
		"setup_s":          median(setupSecs),
		"throughput_ops_s": thr,
		"ok_ratio":         float64(r.attempted-r.chk.failed()) / float64(r.attempted),
		"cpu_us_per_op":    cpu,
		"alloc_kb_per_op":  alloc,
		"space_amp":        ratio(float64(spanPages)*storage.DefaultPageSize, float64(liveBytes)),
		"write_amp":        writeAmp,
		"recovery_s":       median(rec.seconds),
	}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"get_p50_ms", s.get, 0.5}, {"get_p99_ms", s.get, 0.99},
		{"put_p50_ms", puts, 0.5}, {"put_p995_ms", puts, 0.995},
	} {
		v, err := percentile(p.xs, p.q)
		if err != nil {
			return nil, &failure{"percentile/" + p.name, err.Error()}
		}
		m[p.name] = v
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	fmt.Printf("%s seed %d: %d ops in %.1fs (%d GET, %d PUT, %d DELETE samples; %d load PUT samples over %d set-ups); %d checkpoints; %d live keys, %.1f MiB; recovery %d reopens, %d validated blobs; max RSS %d MiB\n",
		r.spec.name, r.seed, s.ops, b.wall.Sub(a.wall).Seconds(), len(s.get), len(s.put), len(s.del),
		len(loadPuts.put), len(setupSecs), b.ckpts-a.ckpts, r.liveKeys(), float64(liveBytes)/mib, len(rec.seconds), rec.report.ValidatedBlobs, ru.Maxrss/1024)
	return r.result(endToEnd, m), nil
}

// liveBytes is the user bytes of the acknowledged live keys.
func (r *run) liveBytes() int64 {
	var n int64
	for _, st := range r.state {
		if st.live {
			n += int64(st.content.size)
		}
	}
	return n
}

func (r *run) liveKeys() int {
	n := 0
	for _, st := range r.state {
		if st.live {
			n++
		}
	}
	return n
}

// checkServed fails the run if the server shed any request in [a, b].
func (r *run) checkServed(a, b counters) error {
	if n := b.rejected - a.rejected + b.shardRejected - a.shardRejected + b.shed - a.shed; n != 0 {
		return &failure{"admission", fmt.Sprintf("%d requests shed by admission control", n)}
	}
	return nil
}

// minCheckpoints is the number of WAL checkpoints a write-churn phase
// must hold: their stalls are what put_p995_ms measures.
const minCheckpoints = 3

func (r *run) checkCheckpoints(a, b counters) error {
	if r.spec.putFrac > 0 && b.ckpts-a.ckpts < minCheckpoints {
		return &failure{"checkpoints", fmt.Sprintf("timed phase held %d WAL checkpoints, need %d", b.ckpts-a.ckpts, minCheckpoints)}
	}
	return nil
}

func (r *run) result(specs []metricSpec, m map[string]float64) *result {
	res := &result{Correct: true, Attempted: r.attempted, Failed: r.chk.failed(), Metrics: map[string]metric{}}
	for _, ms := range specs {
		res.Metrics[ms.name] = metric{Value: m[ms.name], Unit: ms.unit}
	}
	return res
}

func (r *run) traced() (*result, error) {
	r.d = newDataset(r.spec, r.seed, clients)
	tr := newTracer()
	e, _, _, err := r.setup(0, tr)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}

	a, err := e.snapshot()
	if err != nil {
		return nil, &failure{"counters", err.Error()}
	}
	// The per-layer figures have no bound, so the traced run's two phases
	// and its engine-API pass take half the run length each.
	dur := r.dur / 2
	plain := e.phase(r.d, r.state, r.seed, saltUntraced, dur, 0, tr, &r.chk)
	b, err := e.snapshot()
	if err != nil {
		return nil, &failure{"counters", err.Error()}
	}
	r.attempted += plain.ops
	if err := r.checkServed(a, b); err != nil {
		return nil, err
	}
	if err := r.checkCheckpoints(a, b); err != nil {
		return nil, err
	}
	counterMetrics(m, a, b, plain, e)
	thrPlain, _, _ := perSecond(plain.ticks)

	tr.on.Store(true)
	traced := e.phase(r.d, r.state, r.seed, saltTraced, dur, 0, tr, &r.chk)
	thrTraced, _, _ := perSecond(traced.ticks)
	wire := tr.take()
	r.attempted += traced.ops
	m["trace.overhead"] = thrPlain/thrTraced - 1

	api, perGet, perPut := r.enginePass(e, tr, traced.ops, dur)
	tr.on.Store(false)
	m["core.alloc_kb_per_get"] = perGet
	m["core.alloc_kb_per_put"] = perPut
	spanMetrics(m, wire, traced, api)
	if err := r.check("traced"); err != nil {
		return nil, err
	}

	rec, err := r.crashReopen(e)
	if err != nil {
		return nil, err
	}
	m["core.recovery_validated_mib"] = float64(rec.liveBytes) / mib
	m["core.recovery_redone_records"] = float64(rec.report.RedoneRecords)

	path := filepath.Join(r.dir, fmt.Sprintf("trace-%s-%d.jsonl", r.spec.name, r.seed))
	if err := writeSpans(path, append(wire, api...)); err != nil {
		return nil, &failure{"trace-dump", err.Error()}
	}
	fmt.Printf("%s seed %d traced: %.0f ops/s untraced, %.0f traced; %d wire and %d engine-API spans in %s\n",
		r.spec.name, r.seed, thrPlain, thrTraced, len(wire), len(api), path)
	return r.result(perLayer, m), nil
}

// enginePass replays the traced phase's op stream (the same number of
// ops, alternating the clients' streams on one goroutine, for at most
// the phase length) against the engine directly. It returns the spans
// and the heap KiB allocated per GET and per PUT.
func (r *run) enginePass(e *engine, tr *tracer, ops int, dur time.Duration) ([]span, float64, float64) {
	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = newStream(r.d, r.state, r.seed, c, saltTraced, vspaceAPI)
	}
	var bytes [3]float64
	var n [3]float64
	deadline := time.Now().Add(dur)
	for i := 0; i < ops && time.Now().Before(deadline); i++ {
		o := streams[i%clients].next()
		before := heapAllocBytes()
		engineOp(e.db, r.d, r.state, o, tr, &r.chk)
		bytes[o.kind] += float64(heapAllocBytes() - before)
		n[o.kind]++
	}
	return tr.take(), ratio(bytes[opGet]/kib, n[opGet]), ratio(bytes[opPut]/kib, n[opPut])
}
