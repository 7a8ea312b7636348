// Command blobserved serves a database's BLOBs over the network: the
// production counterpart of the read-only blobfsd demo. It exposes the
// internal/blobserver API (GET/PUT/DELETE /v1/{relation}/{key}, relation
// create/list, ranged reads, strong ETags) over HTTP/1.1 and cleartext
// HTTP/2, with admission control, group-committed writes, and graceful
// drain on SIGINT/SIGTERM.
//
//	blobserved -db app.blobdb -listen :9090 &
//	curl -X POST http://localhost:9090/v1/images
//	curl -T xray1.png http://localhost:9090/v1/images/xray1.png
//	curl -H 'Range: bytes=0-1023' http://localhost:9090/v1/images/xray1.png
//	curl http://localhost:9090/debug/vars
//
// With -shards=N the keyspace is partitioned across N fully independent
// engines — each with its own device, buffer pool, WAL, and group-commit
// pipeline — behind a consistent-hash router; the HTTP API is unchanged.
// The shard devices are derived from -db as <db>.s0, <db>.s1, ... (or N
// in-memory devices without -db):
//
//	blobserved -db app.blobdb -shards 4 -listen :9090
//
// Database files are operated on in place (storage.OpenFileDevice):
// kill the process at any point and the next start replays each shard's
// WAL and validates every Blob State against its SHA-256 (§III-C).
// Without -db the server runs on in-memory devices and data is ephemeral.
//
// With -replica-of the server runs as a log-shipping read replica: it
// continuously tails the primary's /repl/v1 stream into its own engine
// and serves GETs with bounded-staleness ETags (X-Replica-Applied-LSN);
// writes are rejected with 421 pointing at the primary. POST
// /admin/v1/promote ends replication and turns the server into a
// primary:
//
//	blobserved -listen :9090 -db app.blobdb &                   # primary
//	blobserved -listen :9091 -replica-of http://localhost:9090  # replica
//	curl -X POST http://localhost:9091/admin/v1/promote         # failover
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blobdb/internal/blobserver"
	"blobdb/internal/core"
	"blobdb/internal/maint"
	"blobdb/internal/repl"
	"blobdb/internal/shard"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:9090", "address to serve on")
		dbPath      = flag.String("db", "", "database file (empty: in-memory, ephemeral); with -shards>1, shard i uses <db>.s<i>")
		pages       = flag.Uint64("pages", 1<<16, "per-shard device size in 4KB pages (256MB default)")
		shards      = flag.Int("shards", 1, "number of independent engine shards behind the router")
		maxInFlight = flag.Int("max-inflight", 64, "admission control: max in-flight requests")
		maxWait     = flag.Duration("max-queue-wait", 100*time.Millisecond, "admission control: bounded wait before 503")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		queueDepth  = flag.Int("queue-depth", storage.DefaultQueueDepth, "per-shard device submission-queue depth (pool miss loads, eviction write-back, commit extent flush)")

		replicaOf    = flag.String("replica-of", "", "run as a read replica tailing this primary base URL (e.g. http://db0:9090)")
		syncInterval = flag.Duration("sync-interval", 200*time.Millisecond, "replica: pull cadence against the primary")

		defrag         = flag.Bool("defrag", false, "run the online defragmenter in the background (per shard)")
		defragInterval = flag.Duration("defrag-interval", 30*time.Second, "defragmenter: round cadence")
		defragMinScore = flag.Float64("defrag-min-score", 0.15, "defragmenter: skip rounds while the fragmentation score is below this")
		defragMaxMoves = flag.Int("defrag-max-moves", 64, "defragmenter: extent relocations per round")
		defragPause    = flag.Duration("defrag-pause", 0, "defragmenter: pause between individual moves (foreground-latency pacing)")
	)
	flag.Parse()
	if *shards < 1 {
		log.Fatal("-shards must be >= 1")
	}
	if *replicaOf != "" && *shards != 1 {
		// Replication is per WAL stream; a sharded replica set needs one
		// replica process (or engine) per shard.
		log.Fatal("-replica-of requires -shards=1")
	}

	dbs := make([]*core.DB, *shards)
	for i := range dbs {
		var dev storage.Device
		if *dbPath != "" {
			fdev, err := storage.OpenFileDevice(shardPath(*dbPath, i, *shards), storage.DefaultPageSize, *pages, simtime.DefaultNVMe())
			if err != nil {
				log.Fatal(err)
			}
			defer fdev.Close()
			dev = fdev
		} else {
			dev = storage.NewMemDevice(storage.DefaultPageSize, *pages, nil)
		}
		db, rep, err := core.RecoverDevice(dev, nil,
			core.WithPoolPages(int(*pages/4)),
			core.WithLogPages(*pages/16),
			core.WithCkptPages(*pages/8),
			core.WithQueueDepth(*queueDepth),
		)
		if err != nil {
			log.Fatalf("shard %d: %v", i, err)
		}
		if rep.FromCheckpoint || rep.CommittedTxns > 0 {
			log.Printf("shard %d recovered: %d committed txns, %d blobs validated, %d failed, %d redone records",
				i, rep.CommittedTxns, rep.ValidatedBlobs, rep.FailedBlobs, rep.RedoneRecords)
		}
		dbs[i] = db
	}
	cluster := shard.New(dbs, shard.Options{
		// Each shard gets a proportional slice of the server-wide admission
		// budget (never less than a few slots) so one hot shard cannot
		// monopolize the whole server.
		MaxInFlightPerShard: max(4, *maxInFlight / *shards),
		MaxQueueWait:        *maxWait,
	})

	cfg := blobserver.Config{
		Cluster:      cluster,
		MaxInFlight:  *maxInFlight,
		MaxQueueWait: *maxWait,
	}
	var replica *repl.Replica
	if *replicaOf != "" {
		replica = repl.NewReplica(dbs[0], repl.NewHTTPSource(*replicaOf, nil))
		cfg.Replica = replica
		cfg.PrimaryURL = *replicaOf
	}
	var defraggers []*maint.Defragmenter
	if *defrag {
		cfg.ExtraVars = map[string]expvar.Var{}
		for i, db := range dbs {
			d := maint.New(db, maint.Config{
				MinScore: *defragMinScore,
				MaxMoves: *defragMaxMoves,
				Interval: *defragInterval,
				Pause:    *defragPause,
				Logf:     log.Printf,
			})
			defraggers = append(defraggers, d)
			cfg.ExtraVars[fmt.Sprintf("defrag_shard%d", i)] = d.Vars()
		}
	}
	bs := blobserver.New(cfg)
	srv := &http.Server{Addr: *listen, Handler: bs}
	blobserver.ConfigureHTTPServer(srv)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if replica != nil {
		go replica.Run(ctx, *syncInterval, func(err error) {
			log.Printf("replication: %v", err)
		})
		log.Printf("replicating from %s (pull every %s; POST /admin/v1/promote to fail over)", *replicaOf, *syncInterval)
	}
	for _, d := range defraggers {
		go d.Run(ctx)
	}
	if *defrag {
		log.Printf("defragmenter on: every %s, min score %.2f, %d moves/round", *defragInterval, *defragMinScore, *defragMaxMoves)
	}
	go func() {
		<-ctx.Done()
		log.Printf("draining (budget %s)...", *drainWait)
		bs.SetDraining(true)
		sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		srv.Shutdown(sctx)
	}()

	log.Printf("serving blobs on http://%s/v1/ (db=%s shards=%d)", *listen, orMem(*dbPath), *shards)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// In-flight requests are done; make every shard's queued commits
	// durable and leave per-shard checkpoints so the next start recovers
	// instantly.
	if err := cluster.Close(); err != nil {
		log.Printf("drain: %v", err)
	}
	log.Print("drained cleanly")
}

// shardPath derives shard i's database file from the base path. One shard
// keeps the plain path, so existing single-engine deployments reopen
// their file unchanged.
func shardPath(base string, i, n int) string {
	if n == 1 {
		return base
	}
	return fmt.Sprintf("%s.s%d", base, i)
}

func orMem(p string) string {
	if p == "" {
		return "<memory>"
	}
	return p
}
