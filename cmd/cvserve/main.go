// Command cvserve runs ConfValley as a long-lived multi-tenant
// validation service — the deployment shape of §5: teams register CPL
// specification programs once and submit configuration payloads for
// validation over HTTP, instead of shipping files to a CLI.
//
// Usage:
//
//	cvserve [-addr 127.0.0.1:7077] [-parallel N]
//	        [-state-dir DIR] [-compact-every N]
//	        [-max-stale N] [-load-timeout 5s]
//	        [-max-concurrent N] [-max-queue N] [-queue-wait 10s]
//	        [-result-cache N]
//	        [-max-tenants N] [-max-specs N] [-max-spec-bytes N]
//	        [-max-sources N] [-max-payload-bytes N] [-version]
//
// Endpoints (all JSON; see internal/serve for the wire types):
//
//	GET    /healthz                                         liveness + version
//	GET    /readyz                                          readiness (503 until
//	                                                        recovery completes,
//	                                                        and while draining)
//	GET    /statsz                                          service counters
//	PUT    /v1/tenants/{tenant}/specs/{spec}                register CPL (body = source)
//	GET    /v1/tenants/{tenant}/specs                       list specs
//	DELETE /v1/tenants/{tenant}/specs/{spec}                delete spec
//	POST   /v1/tenants/{tenant}/specs/{spec}/validate       run a validation
//	GET    /v1/tenants/{tenant}/specs/{spec}/report         last report
//
// Each tenant gets its own runner and spec registry — session, one
// lineage per spec (its last run's verdicts and parses), plan state — so
// tenants are isolated structurally, not by locking.
// Admission control bounds concurrent validations; excess requests wait
// in a bounded queue and overflow is rejected with 429.
//
// Two mechanisms serve the hot path: a per-tenant result cache with
// request coalescing (repeat payloads return the cached response without
// consuming a validation slot; a byte-identical body is answered before
// it is even decoded), sized per tenant by -result-cache, and cross-request
// incremental validation (a request that misses is parsed, and re-runs
// only the specs its payload delta touches — which keeps one parsed
// snapshot alive per registered spec). /healthz and /statsz expose
// per-tenant hit/miss/reuse counters.
//
// With -state-dir, registrations and deletions are journaled (fsync'd
// before the 201) to the directory and replayed on startup, so a crash
// or restart loses no registered spec; /readyz answers 503 until the
// replay completes, so load balancers never route to a server that has
// not rehydrated its registries. Without it, state is in-memory as
// before. The journal folds into a snapshot every -compact-every
// appends.
//
// cvserve exits 0 on clean shutdown (SIGINT/SIGTERM), 2 on usage,
// listen, or state-recovery errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"confvalley"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cvserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:7077", "listen address (host:port; port 0 picks a free port)")
		parallel    = fs.Int("parallel", 1, "validate each request's specifications in N parallel partitions")
		maxStale    = fs.Int("max-stale", 0, "serve a failing source from its last good parse for at most N requests (0 = forever, negative = never)")
		loadTimeout = fs.Duration("load-timeout", 0, "bound each validation (loading plus validation); 0 = no bound")

		stateDir     = fs.String("state-dir", "", "journal registrations/deletions to this directory and recover them on startup (empty = in-memory only)")
		compactEvery = fs.Int("compact-every", 0, "fold the journal into a snapshot every N appends (0 or negative = default 1024)")

		resultCache = fs.Int("result-cache", 0, "entries in the per-tenant (spec, payload) response cache (0 or negative = default 256)")

		maxConcurrent = fs.Int("max-concurrent", 0, "validations running at once (0 = default 4)")
		maxQueue      = fs.Int("max-queue", 0, "requests waiting for a slot before 429 (0 = 2x max-concurrent)")
		queueWait     = fs.Duration("queue-wait", 0, "how long a queued request waits for a slot (0 = default 10s)")

		maxTenants      = fs.Int("max-tenants", 0, "distinct tenants (0 = default 64)")
		maxSpecs        = fs.Int("max-specs", 0, "registered specs per tenant (0 = default 128)")
		maxSpecBytes    = fs.Int64("max-spec-bytes", 0, "one spec's CPL source size (0 = default 1 MiB)")
		maxSources      = fs.Int("max-sources", 0, "payloads+sources per request (0 = default 64)")
		maxPayloadBytes = fs.Int64("max-payload-bytes", 0, "total payload bytes per request (0 = default 32 MiB)")

		version = fs.Bool("version", false, "print the ConfValley version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "cvserve version %s (report schema v%d)\n", confvalley.Version, confvalley.ReportSchemaVersion)
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "cvserve: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	srv := serve.New(serve.Config{
		Quotas: serve.Quotas{
			MaxTenants:      *maxTenants,
			MaxSpecs:        *maxSpecs,
			MaxSpecBytes:    *maxSpecBytes,
			MaxSources:      *maxSources,
			MaxPayloadBytes: *maxPayloadBytes,
		},
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		QueueWait:       *queueWait,
		ResultCacheSize: *resultCache,
		StateDir:        *stateDir,
		CompactEvery:    *compactEvery,
		Runner: runner.Options{
			Parallel:    *parallel,
			MaxStale:    *maxStale,
			LoadTimeout: *loadTimeout,
			Env:         confvalley.HostEnv(),
		},
	})

	// Listen before announcing: with -addr :0 the kernel picks the port,
	// and the printed URL (parsed by the e2e harness and by humans
	// copy-pasting) must carry the resolved address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "cvserve: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "cvserve: listening on http://%s\n", ln.Addr())
	flush(stdout)

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// The socket is live before recovery so load balancers can watch
	// /readyz flip; every state-changing request answers 503 until the
	// replay below finishes. In-memory mode recovers nothing and is
	// ready immediately.
	if err := srv.Recover(); err != nil {
		fmt.Fprintf(stderr, "cvserve: recovering state: %v\n", err)
		hs.Close()
		return 2
	}
	if *stateDir != "" {
		st := srv.Stats().Durability
		fmt.Fprintf(stdout, "cvserve: ready — recovered %d spec(s) from %d journal record(s) (%d torn-tail truncation(s))\n",
			st.RecoveredSpecs, st.ReplayedRecords, st.TornTruncations)
		flush(stdout)
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "cvserve: %v\n", err)
			return 2
		}
		return 0
	case <-ctx.Done():
	}

	// Graceful shutdown: flip /readyz to draining (503) so load
	// balancers stop routing, stop accepting, let in-flight validations
	// finish, release the journal, then report what the server did
	// while it was up.
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "cvserve: closing journal: %v\n", err)
	}
	st := srv.Stats()
	fmt.Fprintf(stderr, "cvserve: shut down after %d validation(s), %d violation(s), %d busy rejection(s)\n",
		st.Validations, st.Violations, st.RejectedBusy)
	return 0
}

// flush pushes the listen banner through any buffering writer so
// supervisors and the e2e harness see the resolved address promptly.
func flush(w io.Writer) {
	switch f := w.(type) {
	case interface{ Flush() error }:
		f.Flush()
	case interface{ Flush() }:
		f.Flush()
	case interface{ Sync() error }:
		f.Sync()
	}
}
