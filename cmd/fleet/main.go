// Command fleet runs the distributed-sweep roles of the lease-based
// fleet protocol (tempest-fleet/2).
//
// A coordinator owns the sweep state: it accepts workers and remote
// clients, leases sweep points, heartbeats the leases, reassigns work
// when a worker dies or stalls, verifies every result against the
// point's canonical cache key, and serves warm-cache hits without
// leasing at all. A worker connects to a coordinator and simulates
// whatever it is leased, one lease per connection: -j N is N
// connections from one process, sharing its cache.
//
// Usage:
//
//	fleet coordinator -addr /tmp/fleet.sock -cache-dir .cache
//	fleet worker -addr /tmp/fleet.sock -j 4
//	fig3 -fleet /tmp/fleet.sock            # any sweep binary as client
//	bench -workers-addr :7781 ...          # or embed the coordinator
//
// Both roles exit 0 on an orderly shutdown (SIGINT for the
// coordinator, coordinator close for the worker) and non-zero on
// protocol or verification failures.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tempest-sim/tempest/internal/fleet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "coordinator":
		coordinator(os.Args[2:])
	case "worker":
		worker(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fleet: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  fleet coordinator -addr <addr> [-cache-dir d] [-lease-ttl d] ...
  fleet worker -addr <addr> [-j n] [-cache-dir d] ...

An <addr> containing '/' is a unix socket path; anything else is TCP.
`)
	os.Exit(2)
}

func fail(role string, err error) {
	fmt.Fprintf(os.Stderr, "fleet %s: %v\n", role, err)
	os.Exit(2)
}

func coordinator(args []string) {
	fs := flag.NewFlagSet("fleet coordinator", flag.ExitOnError)
	addr := fs.String("addr", "", "address to listen on (required)")
	cache := fleet.RegisterCache(fs)
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "lease time-to-live without a heartbeat before a point is re-queued")
	maxAttempts := fs.Int("max-attempts", 5, "lease budget per point before the sweep fails")
	quiet := fs.Bool("quiet", false, "suppress lifecycle logging")
	fs.Parse(args)
	if *addr == "" {
		fail("coordinator", fmt.Errorf("-addr is required"))
	}
	cp, err := cache.Resolve()
	if err != nil {
		fail("coordinator", err)
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{
		Cache: cp, LeaseTTL: *leaseTTL, MaxAttempts: *maxAttempts, Logf: logf,
	})
	ln, err := fleet.Listen(*addr)
	if err != nil {
		fail("coordinator", err)
	}
	fmt.Fprintf(os.Stderr, "fleet coordinator: listening on %s (lease TTL %v)\n", *addr, *leaseTTL)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ln.Close()
	}()
	err = co.Serve(ln)
	co.Close()
	fmt.Fprintf(os.Stderr, "fleet coordinator: %s\n", co.Stats())
	if err != nil {
		fail("coordinator", err)
	}
}

func worker(args []string) {
	fs := flag.NewFlagSet("fleet worker", flag.ExitOnError)
	addr := fs.String("addr", "", "coordinator address to connect to (required)")
	jobs := fs.Int("j", 1, "concurrent leases to run, one connection each (0 = all cores)")
	cache := fleet.RegisterCache(fs) // share the coordinator's -cache-dir to compose warm caches
	connectTimeout := fs.Duration("connect-timeout", 30*time.Second, "how long to retry the initial dial (workers often start before the coordinator)")
	dieAfter := fs.Int("die-after-leases", 0, "fault-injection hook: exit(1) immediately after receiving the Nth lease (0 = never)")
	quiet := fs.Bool("quiet", false, "suppress lifecycle logging")
	fs.Parse(args)
	if *addr == "" {
		fail("worker", fmt.Errorf("-addr is required"))
	}
	if err := fleet.CheckJobs(*jobs); err != nil {
		fail("worker", err)
	}
	if *jobs == 0 {
		*jobs = runtime.NumCPU()
	}
	cp, err := cache.Resolve()
	if err != nil {
		fail("worker", err)
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	opts := fleet.WorkerOptions{Cache: cp, Logf: logf}
	if *dieAfter > 0 {
		var leases atomic.Int64 // across the process's connections
		opts.OnLease = func(int) {
			if n := leases.Add(1); n >= int64(*dieAfter) {
				fmt.Fprintf(os.Stderr, "fleet worker: dying after lease %d (injected)\n", n)
				os.Exit(1)
			}
		}
	}
	// One connection per concurrent lease; the first to fail ends the
	// process, and an orderly close reaches all of them together.
	errs := make(chan error, *jobs)
	for i := 0; i < *jobs; i++ {
		conn, err := fleet.DialRetry(*addr, *connectTimeout)
		if err != nil {
			fail("worker", err)
		}
		go func() { errs <- fleet.RunWorker(context.Background(), conn, opts) }()
	}
	for i := 0; i < *jobs; i++ {
		if err := <-errs; err != nil {
			fail("worker", err)
		}
	}
}
