// Command castand runs castan as a long-lived analysis service: an
// HTTP/JSON daemon that queues concurrent analysis requests, shards them
// across a supervised worker fleet, and degrades instead of dying under
// overload, injected faults, or worker crashes (see internal/service for
// the full contract).
//
// Lifecycle: SIGTERM/SIGINT starts a graceful drain — admission stops
// (/readyz turns 503), every queued and in-flight analysis is
// budget-canceled so it returns a valid degraded report, the fleet is
// waited on up to -drain-timeout, metrics are flushed, and the process
// exits 0. A second signal abandons the drain and exits 1.
//
// Usage:
//
//	castand -addr 127.0.0.1:8347 -workers 4 -store /tmp/castan-store
//	castand -addr 127.0.0.1:0 -addr-file /tmp/castand.addr   # scripts
//	castand load -addr-file /tmp/castand.addr -n 50          # load generator (load.go)
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
	"strings"
	"syscall"
	"time"

	"castan/internal/obs"
	"castan/internal/retry"
	"castan/internal/service"
	"castan/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to the load subcommand; without one (no arguments, or a
// flag first) it runs the daemon.
func run(args []string, stdout, stderr io.Writer) int {
	switch {
	case len(args) == 0 || strings.HasPrefix(args[0], "-"):
		return serve(args, stderr)
	case args[0] == "load":
		return load(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "castand: unknown subcommand %q; subcommands: load\n", args[0])
	return 2
}

// newFlagSet returns a flag set that reports to stderr; its caller
// returns parseExit of a failed Parse.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseExit is 0 after -h and 2 for a bad flag, as with flag.ExitOnError.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// fail reports err under the command's name and returns exit code 1.
func fail(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

func serve(args []string, stderr io.Writer) int {
	fs := newFlagSet("castand", stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8347", "listen address (port 0 picks a free port)")
		addrFile     = fs.String("addr-file", "", "write the resolved listen address to this file (for scripts)")
		workers      = fs.Int("workers", 4, "analysis worker fleet size")
		analysisW    = fs.Int("analysis-workers", 1, "per-job pipeline fan-out (output-invariant)")
		queueDepth   = fs.Int("queue", 64, "admission queue depth")
		tenantCap    = fs.Int("tenant-cap", 8, "per-tenant queued+running cap")
		tenantBudget = fs.Uint64("tenant-budget", 0, "cumulative tick allotment per tenant (0 = unlimited)")
		defBudget    = fs.Uint64("budget", 0, "default per-request tick budget (0 = unlimited)")
		defDeadline  = fs.Duration("deadline", 0, "default per-request deadline, queue wait included (0 = none)")
		defPackets   = fs.Int("packets", 4, "default workload length per request")
		defStates    = fs.Int("states", 1500, "default exploration budget per request")
		storeDir     = fs.String("store", "", "artifact + report cache directory (empty = no store)")
		chaos        = fs.Bool("chaos", false, "honor fault/chaos request fields (tests only)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM")
		metricsOut   = fs.String("metrics-out", "", "write the final service metrics snapshot here on exit")
		crashQuar    = fs.Int("crash-quarantine", 3, "worker crashes per request shape before quarantine")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fatal := func(err error) int { return fail(stderr, "castand", err) }

	cfg := service.Config{
		Workers:          *workers,
		AnalysisWorkers:  *analysisW,
		QueueDepth:       *queueDepth,
		TenantCap:        *tenantCap,
		TenantBudget:     *tenantBudget,
		DefaultBudget:    *defBudget,
		DefaultDeadline:  *defDeadline,
		DefaultPackets:   *defPackets,
		DefaultMaxStates: *defStates,
		CrashQuarantine:  *crashQuar,
		AllowChaos:       *chaos,
		Restart:          retry.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Jitter: 0.2, Seed: 1},
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return fatal(err)
		}
		cfg.Store = st
	}

	srv := service.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal(err)
	}
	if *addrFile != "" {
		// Write-then-rename so watchers never read a half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return fatal(err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "castand: serve:", err)
		}
	}()
	fmt.Fprintf(stderr, "castand: listening on %s (%d workers, queue %d, chaos %v)\n",
		ln.Addr(), *workers, *queueDepth, *chaos)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(stderr, "castand: %s received, draining (timeout %s)\n", got, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		fmt.Fprintln(stderr, "castand: second signal, abandoning the drain")
		cancel()
	}()

	drainErr := srv.Shutdown(ctx)
	_ = httpSrv.Shutdown(ctx)
	if *metricsOut != "" {
		m := srv.Metrics()
		if m == nil {
			m = &obs.Metrics{}
		}
		if err := m.WriteJSONFile(*metricsOut); err != nil {
			fmt.Fprintln(stderr, "castand: metrics flush:", err)
		}
	}
	if drainErr != nil {
		return fatal(drainErr)
	}
	fmt.Fprintln(stderr, "castand: drained cleanly")
	return 0
}
