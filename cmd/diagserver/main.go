// Command diagserver serves circuit diagnosis over JSON/HTTP: a warm
// session pool amortizes SAT instance construction and learnt-clause
// warmup across requests, a bounded scheduler applies backpressure, and
// /metrics exposes pool and latency telemetry.
//
// Start it, then drive it with curl or cmd/diagload:
//
//	diagserver -addr :8344 &
//	curl -s 'localhost:8344/scenario?circuit=s298x&inject=1&seed=3&tests=6' > sc.json
//	jq '{bench, tests, k}' sc.json | curl -s -d @- localhost:8344/diagnose | jq .
//
// Endpoints:
//
//	POST /diagnose            diagnose a faulty netlist against failing tests
//	POST /sessions/{id}/tests incremental re-diagnosis: edit a warm session's test-set
//	GET  /sessions            list warm sessions
//	GET  /healthz             liveness + pool/scheduler gauges
//	GET  /metrics             Prometheus-style counters and histograms
//	GET  /scenario            generate a self-contained faulty circuit + failing tests
//	GET  /debug/diag/trace    recent request traces (spans + flight recorder)
//
// With -debug-addr, a second listener additionally serves /debug/pprof
// (kept off the public port so profiling never rides the serving path).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/failpoint"
	"repro/internal/journal"
	"repro/internal/service"
)

// envInt64 reads an integer environment default for a flag.
func envInt64(key string, def int64) int64 {
	if s := os.Getenv(key); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

func main() {
	var (
		addr       = flag.String("addr", ":8344", "listen address")
		workers    = flag.Int("workers", 0, "request executor pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "admission queue depth (full queue -> 429)")
		poolMB     = flag.Int64("pool-mb", 512, "warm-session pool budget in MiB (LRU eviction past it)")
		sessions   = flag.Int("pool-sessions", 64, "warm-session count bound")
		defTO      = flag.Duration("default-timeout", 2*time.Minute, "budget for requests without one")
		maxTO      = flag.Duration("max-timeout", 10*time.Minute, "clamp for client-supplied budgets (0 = none)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		failpoints = flag.String("failpoints", os.Getenv("DIAG_FAILPOINTS"),
			"failpoint spec for chaos runs, e.g. 'cnf/cube=panic(0.1)x5' (default from DIAG_FAILPOINTS)")
		fpSeed = flag.Int64("failpoint-seed", envInt64("DIAG_FAILPOINT_SEED", 1),
			"deterministic failpoint seed (default from DIAG_FAILPOINT_SEED)")
		debugAddr = flag.String("debug-addr", "",
			"separate listener for /debug/pprof (empty = profiling disabled)")
		logLevel   = flag.String("log-level", "info", "structured request-log level (debug, info, warn, error)")
		journalDir = flag.String("journal-dir", os.Getenv("DIAG_JOURNAL_DIR"),
			"session-journal directory: warm pool survives restarts via replay (empty = no persistence)")
		journalFsync = flag.String("journal-fsync", "interval",
			"journal fsync policy: always (per record), interval (background), off")
		journalSegMB = flag.Int64("journal-segment-mb", 64,
			"journal segment rotation threshold in MiB (compaction snapshots the live roster)")
		replayWorkers = flag.Int("replay-workers", service.DefaultReplayWorkers,
			"parallel session rebuilds during startup replay")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("-log-level: %v", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *failpoints != "" {
		if err := failpoint.Enable(*failpoints, *fpSeed); err != nil {
			log.Fatalf("-failpoints: %v", err)
		}
		log.Printf("failpoints armed: %s (seed %d)", *failpoints, *fpSeed)
	}

	// Open the session journal before the server exists: its folded state
	// decides whether the server boots warming (503 until replay ends).
	var (
		jw  *journal.Writer
		jst *journal.State
	)
	if *journalDir != "" {
		policy, err := journal.ParsePolicy(*journalFsync)
		if err != nil {
			log.Fatalf("-journal-fsync: %v", err)
		}
		jw, jst, err = journal.Open(journal.Options{
			Dir:          *journalDir,
			Fsync:        policy,
			SegmentBytes: *journalSegMB << 20,
		})
		if err != nil {
			log.Fatalf("-journal-dir %s: %v", *journalDir, err)
		}
		log.Printf("journal open: %s (%d sessions, %d records, %d corrupt skipped, torn tail %dB, sealed=%t)",
			*journalDir, len(jst.Sessions), jst.Records, jst.Skipped, jst.TornTailBytes, jst.Sealed)
	}

	srv := service.NewServer(service.Options{
		Pool: service.PoolOptions{
			MaxBytes:    *poolMB << 20,
			MaxSessions: *sessions,
		},
		Scheduler: service.SchedulerOptions{
			Workers:        *workers,
			Queue:          *queue,
			DefaultTimeout: *defTO,
			MaxTimeout:     *maxTO,
		},
		Logger:        logger,
		Journal:       jw,
		ReplayPending: jw != nil && len(jst.Sessions) > 0,
	})

	if *debugAddr != "" {
		// pprof lives on its own mux and listener: the serving port never
		// exposes the profiler, and a firewalled debug port can stay open
		// in production.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("diagserver listening on %s (workers=%d queue=%d pool=%dMiB)",
		*addr, srv.Sched().Workers(), *queue, *poolMB)

	if jw != nil {
		// Replay behind the live listener: /healthz answers 503 "warming"
		// until the warm pool is rebuilt, /livez answers 200 throughout,
		// and requests that race the replay simply cold-build.
		go func() {
			rep := srv.Replay(jst, *replayWorkers)
			log.Printf("replay done: %d sessions warm, %d skipped, %d tests, %v",
				rep.Sessions, rep.Skipped, rep.Tests, rep.Elapsed.Round(time.Millisecond))
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case sig := <-sigc:
		log.Printf("%v: draining (budget %v)", sig, *drainTO)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// Stop accepting connections first, then let admitted diagnoses
	// finish.
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
		os.Exit(1)
	}
	fmt.Println("diagserver: drained cleanly")
}
