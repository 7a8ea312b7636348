package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"blobdb/internal/btree"
	"blobdb/internal/core"
	"blobdb/internal/gittrace"
	"blobdb/internal/oskern"
	"blobdb/internal/simtime"
	"blobdb/internal/wiki"
	"blobdb/internal/ycsb"
)

// Table1 prints the qualitative design summary (the paper's Table I row
// for "Our design"), straight from the engine's self-description.
func Table1() (*Result, error) {
	res := &Result{
		ID: "table1", Title: "Design summary (Table I, 'Our design' row)",
		Header: []string{"property", "value"},
	}
	summary := core.DesignSummary()
	for _, k := range sortedKeys(summary) {
		res.Rows = append(res.Rows, []string{k, summary[k]})
	}
	return res, nil
}

// Table2 regenerates Table II: shared-area synchronization overhead —
// read-only 10 MB BLOBs, 16 workers, worker-local aliasing area of 4 MB
// (every read reserves shared blocks) vs 16 MB (no shared-area traffic).
// The paper's point: the two rows are nearly identical.
func Table2() (*Result, error) {
	res := &Result{
		ID: "table2", Title: "Shared aliasing-area synchronization overhead (10MB blobs, 16 workers)",
		Header: []string{"wrk-local", "shared?", "txn/s", "instruct./txn", "kernel/txn", "misses/txn", "shared uses"},
	}
	for _, cfg := range []struct {
		name  string
		pages int
	}{
		{"4MB", 1024},
		{"16MB", 4096},
	} {
		sys, err := NewOurSystem(VariantOur, OurOptions{
			DevPages: 1 << 17, PoolPages: 1 << 16, LogPages: 1 << 13,
			WorkerLocalAliasPages: cfg.pages,
		})
		if err != nil {
			return nil, err
		}
		const records = 6
		sizes, err := loadRecords(sys, records, ycsb.Payload10MB, 3)
		if err != nil {
			return nil, err
		}
		if err := sys.Drain(); err != nil {
			return nil, err
		}
		const workers = 16
		const opsPer = 40
		max := maxSize(sizes)
		bufs := make([][]byte, workers)
		for i := range bufs {
			bufs[i] = make([]byte, max)
		}
		tput, agg, err := runModel(runCfg{workers: workers, ops: workers * opsPer},
			func(w int, m *simtime.Meter, i int) error {
				k := (w*opsPer + i) % records
				_, err := sys.Get(m, ycsb.Key(k), bufs[w][:sizes[k]])
				return err
			})
		if err != nil {
			return nil, err
		}
		txns := int64(workers * opsPer)
		st := sys.DB.AliasManager().Stats()
		usedShared := "No"
		if st.SharedUses > 0 {
			usedShared = "Yes"
		}
		res.Rows = append(res.Rows, []string{
			cfg.name, usedShared, fmtTput(tput),
			fmt.Sprint(agg.UserOps / txns),
			fmt.Sprint(agg.KernelOps / txns),
			fmt.Sprint(agg.CacheMisses / txns),
			fmt.Sprint(st.SharedUses),
		})
	}
	return res, nil
}

// prefixIndex is the Table III baseline: a B-tree over the first KB of each
// BLOB, the approach MySQL (767 B) and PostgreSQL (8191 B) approximate.
// Articles sharing a prefix collide: only one entry survives, so lookups
// for the others cannot be served by the index.
type prefixIndex struct {
	limit int
	tree  *btree.Tree
}

func (p *prefixIndex) key(content []byte) []byte {
	if len(content) > p.limit {
		return content[:p.limit]
	}
	return content
}

// Table3 regenerates Table III: Blob State index vs 1 KB-prefix index on
// the Wikipedia corpus — miss rate, build time, size, leaf count, lookups.
func Table3() (*Result, error) {
	cfg := wiki.DefaultConfig()
	cfg.Articles = 1500
	cfg.TotalBytes = 48 << 20
	cfg.MaxArticle = 2 << 20
	corpus := wiki.Generate(cfg)

	sys, err := NewOurSystem(VariantOur, OurOptions{DevPages: 1 << 15, PoolPages: 1 << 14, LogPages: 1 << 12})
	if err != nil {
		return nil, err
	}
	if _, err := loadWiki(sys, corpus); err != nil {
		return nil, err
	}

	// Build both indexes, timed.
	startBS := time.Now()
	ci, err := sys.DB.CreateContentIndex("bench")
	if err != nil {
		return nil, err
	}
	bsBuild := time.Since(startBS)

	pi := &prefixIndex{limit: 1024, tree: btree.New(nil)}
	startPI := time.Now()
	for i := range corpus.Articles {
		content := corpus.Content(i)
		pi.tree.Put(pi.key(content), []byte(corpus.Articles[i].Title))
	}
	piBuild := time.Since(startPI)

	// Miss rate + lookup throughput: query every article by full content.
	const rounds = 4
	var bsMiss, piMiss int
	startQ := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range corpus.Articles {
			content := corpus.Content(i)
			got, err := ci.LookupExact(content)
			if err != nil {
				return nil, err
			}
			if r == 0 && (len(got) == 0 || !bytes.Equal(got[0], []byte(corpus.Articles[i].Title))) {
				bsMiss++
			}
		}
	}
	bsLookups := float64(rounds*len(corpus.Articles)) / time.Since(startQ).Seconds()

	startQ = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range corpus.Articles {
			content := corpus.Content(i)
			got, ok := pi.tree.Get(pi.key(content))
			// A prefix index can only answer when the surviving entry is
			// actually this article (collisions answer wrongly = miss).
			if r == 0 && (!ok || !bytes.Equal(got, []byte(corpus.Articles[i].Title))) {
				piMiss++
			}
		}
	}
	piLookups := float64(rounds*len(corpus.Articles)) / time.Since(startQ).Seconds()

	n := len(corpus.Articles)
	bsStats := ci.Stats()
	piStats := pi.tree.Stats()
	res := &Result{
		ID: "table3", Title: "BLOB indexing: Blob State index vs 1KB-prefix index (Wikipedia)",
		Header: []string{"variant", "miss%", "build(ms)", "size(MB)", "#leaf", "lookup/s"},
		Notes:  []string{fmt.Sprintf("%d articles, %dMB corpus, %.0f%% shared-prefix population", n, corpus.TotalBytes()>>20, cfg.SharedPrefixFraction*100)},
	}
	res.Rows = append(res.Rows, []string{
		"Blob State", fmt.Sprintf("%.0f%%", 100*float64(bsMiss)/float64(n)),
		fmt.Sprintf("%d", bsBuild.Milliseconds()),
		fmt.Sprintf("%.1f", float64(bsStats.SizeBytes)/(1<<20)),
		fmt.Sprint(bsStats.Leaves), fmtTput(bsLookups),
	})
	res.Rows = append(res.Rows, []string{
		"1K Prefix", fmt.Sprintf("%.0f%%", 100*float64(piMiss)/float64(n)),
		fmt.Sprintf("%d", piBuild.Milliseconds()),
		fmt.Sprintf("%.1f", float64(piStats.SizeBytes)/(1<<20)),
		fmt.Sprint(piStats.Leaves), fmtTput(piLookups),
	})
	return res, nil
}

// gitTarget adapts a System to the trace replayer. Our engine accumulates
// each file with AppendBlob inside one transaction per file (the §III-D
// growth path with resumable SHA-256); file systems replay the syscalls.
type gitTarget struct {
	sys   System
	m     *simtime.Meter
	fs    *oskern.Kernel // non-nil for file systems
	fds   map[string]int
	sizes map[string]int64
	our   *OurSystem
}

func newGitTarget(sys System, m *simtime.Meter) *gitTarget {
	t := &gitTarget{sys: sys, m: m, fds: map[string]int{}, sizes: map[string]int64{}}
	if f, ok := sys.(*FSSystem); ok {
		t.fs = f.K
	}
	if o, ok := sys.(*OurSystem); ok {
		t.our = o
	}
	return t
}

// Create implements gittrace.Target.
func (t *gitTarget) Create(path string) error {
	if t.fs != nil {
		fd, err := t.fs.Open(t.m, path, true)
		if err != nil {
			return err
		}
		t.fds[path] = fd
		return nil
	}
	return t.sys.Put(t.m, path, nil)
}

// Append implements gittrace.Target.
func (t *gitTarget) Append(path string, data []byte) error {
	if t.fs != nil {
		_, err := t.fs.PWrite(t.m, t.fds[path], data, t.sizes[path])
		t.sizes[path] += int64(len(data))
		return err
	}
	tx := t.our.DB.Begin(t.m)
	bw, err := tx.AppendBlob(tx.Context(), "bench", []byte(path))
	if err != nil {
		tx.Abort()
		return err
	}
	if _, err := bw.Write(data); err != nil {
		bw.Abort()
		tx.Abort()
		return err
	}
	if err := bw.Close(); err != nil {
		tx.Abort()
		return err
	}
	return commitAsync(tx)
}

// Close implements gittrace.Target.
func (t *gitTarget) Close(path string) error {
	if t.fs != nil {
		return t.fs.Close(t.m, t.fds[path])
	}
	return nil // the engine committed on each grow; close is free
}

// Stat implements gittrace.Target.
func (t *gitTarget) Stat(path string) error {
	if t.fs != nil {
		_, err := t.fs.Stat(t.m, path)
		return err
	}
	tx := t.our.DB.Begin(t.m)
	defer tx.Commit()
	_, err := tx.BlobState("bench", []byte(path))
	return err
}

// Table4 regenerates Table IV: the simulated git-clone trace replayed
// against Our and the five file systems; time, analog instructions, and
// analog kernel cycles.
func Table4() (*Result, error) {
	trace := gittrace.Generate(gittrace.DefaultConfig())
	const devPages = 1 << 17 // 512MB: the 128MB checkout plus tier slack
	const pool = 1 << 15

	makers := append([]func() (System, error){func() (System, error) {
		return NewOurSystem(VariantOur, OurOptions{DevPages: devPages, PoolPages: pool, LogPages: 1 << 14})
	}}, fsMakers(devPages, pool, true, true)...)
	res := &Result{
		ID: "table4", Title: "Git-clone trace replay (single-threaded)",
		Header: []string{"system", "time(ms)", "instructions", "kernel cycles", "syscalls"},
		Notes: []string{fmt.Sprintf("%d files, %dMB, %d ops (scaled 1/10 from the paper's 1.28GB clone)",
			trace.Files, trace.TotalBytes>>20, len(trace.Ops))},
	}
	for _, mk := range makers {
		runtime.GC()
		sys, err := mk()
		if err != nil {
			return nil, err
		}
		m := simtime.NewMeter()
		var bgBefore, blockedBefore time.Duration
		o, isOur := sys.(*OurSystem)
		if isOur {
			bgBefore = o.DB.CommitterBusy()
			blockedBefore = o.DB.CommitBlocked()
		}
		start := time.Now()
		if err := gittrace.Replay(trace, newGitTarget(sys, m)); err != nil {
			return nil, fmt.Errorf("%s: %w", sys.Name(), err)
		}
		if d, ok := sys.(interface{ Drain() error }); ok {
			if err := d.Drain(); err != nil {
				return nil, err
			}
		}
		wall := time.Since(start)
		var bgBusy, blocked time.Duration
		if isOur {
			bgBusy = o.DB.CommitterBusy() - bgBefore
			blocked = o.DB.CommitBlocked() - blockedBefore
		}
		workerCPU := wall - blocked
		if workerCPU < 0 {
			workerCPU = 0
		}
		elapsed := workerCPU
		if bgBusy > elapsed {
			elapsed = bgBusy
		}
		elapsed += m.Elapsed()
		c := m.Snapshot()
		res.Rows = append(res.Rows, []string{
			sys.Name(), fmt.Sprint(elapsed.Milliseconds()),
			fmtTput(float64(c.UserOps)), fmtTput(float64(c.KernelOps)), fmtTput(float64(c.Syscalls)),
		})
		closeSystem(sys)
	}
	return res, nil
}
