// Command eilid-fleetd is the fleet's long-running service mode: a
// persistent HTTP daemon that accepts batch submissions and runs them
// through the ordinary fleet runner while keeping build artifacts,
// decode caches and recycled machines warm across
// batches in one fleet.Warm (internal/fleet/serve). Where every
// `eilid-fleet` invocation pays the full cold start — pipeline
// construction, a dozen victim builds for a generated batch, machine
// construction per matrix cell — a warm daemon runs a resubmitted spec
// straight on recycled machines.
//
// Usage:
//
//	eilid-fleetd [-addr 127.0.0.1:7199] [-max-queue N] [-q]
//
// Endpoints (see internal/fleet/serve):
//
//	POST /batches              submit a fleet.BatchSpec as JSON — the
//	                           exact document `eilid-fleet -dump-spec`
//	                           prints, with unknown fields rejected
//	GET  /batches              all batch statuses, in submission order
//	GET  /batches/{id}         one batch status
//	GET  /batches/{id}/journal the journal as chunked NDJSON, streamed
//	                           live while the batch runs
//	GET  /healthz              liveness + warm-cache statistics
//
// The streamed journal for a spec is byte-identical to the file
// `eilid-fleet -spec batch.json -json out.ndjson` writes for the same
// spec — the service trades cold starts away without touching the
// determinism contract.
//
// Shutdown: the first SIGINT/SIGTERM drains — intake stops (POST
// returns 503), the in-flight batch finishes, queued batches are
// journalled interrupted, open journal streams complete — and the
// daemon exits 0. A second signal cancels the in-flight batch's
// dispatch (its running jobs drain and it is journalled interrupted)
// and the daemon exits 3.
//
// Exit codes: 0 clean shutdown; 1 startup or serve errors; 2 usage
// errors; 3 shut down with the in-flight batch cancelled.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet/serve"
)

// Connection bounds of the daemon's HTTP server. A connection that
// never completes a request header is closed after readHeaderTimeout,
// and a keep-alive connection idle between requests after idleTimeout.
// There is no write timeout: a journal stream lives as long as its
// batch.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in an http.Server with the connection bounds.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is the testable daemon body: it owns the listener and the serve
// lifecycle, and treats sig as the shutdown control channel (main
// wires real signals to it; tests send values directly).
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("eilid-fleetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7199", "listen address (host:port; port 0 picks a free port)")
	maxQueue := fs.Int("max-queue", 0, "queued batches beyond the running one before POST returns 503 (0 = default)")
	quiet := fs.Bool("q", false, "suppress per-batch lifecycle log lines")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "eilid-fleetd: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *maxQueue < 0 {
		fmt.Fprintf(stderr, "eilid-fleetd: -max-queue must be >= 0 (got %d)\n", *maxQueue)
		return 2
	}

	pipeline, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleetd:", err)
		return 1
	}
	logw := io.Writer(stderr)
	if *quiet {
		logw = io.Discard
	}
	srv := serve.New(pipeline, serve.Options{MaxQueue: *maxQueue, Log: logw})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleetd:", err)
		srv.Drain()
		return 1
	}
	// The resolved address line is the daemon's readiness signal: with
	// -addr …:0 it is the only way to learn the bound port.
	fmt.Fprintf(stdout, "eilid-fleetd: listening on %s\n", ln.Addr())

	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "eilid-fleetd:", err)
		srv.Stop()
		return 1
	case s := <-sig:
		fmt.Fprintf(stderr, "eilid-fleetd: %v: draining — finishing the in-flight batch, rejecting new submissions (signal again to cancel in-flight)\n", s)
	}

	// Drain in the background so a second signal can still escalate to
	// cancelling the in-flight batch.
	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	forced := false
	for waiting := true; waiting; {
		select {
		case <-drained:
			waiting = false
		case s, ok := <-sig:
			if ok && !forced {
				forced = true
				fmt.Fprintf(stderr, "eilid-fleetd: %v: cancelling the in-flight batch\n", s)
				srv.Cancel()
			}
		}
	}

	// The executor is idle; let open journal streams finish flushing
	// their terminal lines before the listener closes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "eilid-fleetd: shutdown:", err)
	}
	if forced {
		return 3
	}
	return 0
}
