// Command memcached runs the TM-memcached server: the cache engine under any
// synchronization branch from the paper, speaking the memcached text and
// binary protocols over TCP.
//
// Examples:
//
//	memcached -addr :11211 -branch baseline
//	memcached -addr :11211 -branch it-oncommit
//	memcached -addr :11211 -branch ip-nolock -stm norec -cm none
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stm"
	"repro/internal/txtrace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address")
		branchStr = flag.String("branch", "it-oncommit", "synchronization branch (baseline, semaphore, ip, it, ip-callable, it-callable, ip-max, it-max, ip-lib, it-lib, ip-oncommit, it-oncommit, ip-nolock, it-nolock)")
		memLimit  = flag.Uint64("m", 64, "memory limit in MiB")
		hashPower = flag.Uint("hashpower", 16, "initial hash table power (per shard)")
		shards    = flag.Int("shards", 0, "independent TM domains to partition the cache into (0 = GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "verbose event logging to stderr")
		stmAlg    = flag.String("stm", "", "override STM algorithm (mlwt, lazy, norec, serial)")
		cmStr     = flag.String("cm", "", "override contention manager (serialize, none, backoff, hourglass)")
		noLock    = flag.Bool("nolock", false, "override: remove the global serial lock")
		trace     = flag.Bool("trace", false, "enable transaction observability from startup (stats tm/conflicts/latency)")
		txtraceMd = flag.String("txtrace", "off", "request tracing mode from startup: off, sampled, or full (stats slowlog, /debug/trace)")
		debugAddr = flag.String("debug-addr", "", "serve the debug HTTP endpoint (/debug/vars, /metrics, /debug/pprof/) on this address")
		eventLoop = flag.Bool("event-loop", runtime.GOOS == "linux", "event-driven transport: epoll parks idle connections, a bounded shard-affine worker pool serves ready ones (default on linux; off = goroutine per connection)")
		workers   = flag.Int("workers", 0, "event-loop execution workers (0 = shards+2, capped at 32)")
		fprint    = flag.Bool("fingerprint", false, "enable per-shard workload fingerprinting from startup (stats fingerprint, /debug/fingerprint, mctop)")
	)
	flag.Parse()

	b, err := engine.ParseBranch(*branchStr)
	if err != nil {
		log.Fatal(err)
	}
	conf := engine.Config{
		Branch:    b,
		Shards:    *shards,
		MemLimit:  *memLimit << 20,
		HashPower: *hashPower,
		Verbose:   *verbose,
		Automove:  true,
	}
	if *verbose {
		conf.LogSink = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	if *stmAlg != "" || *cmStr != "" || *noLock {
		sc := stm.Config{Algorithm: stm.MLWT, CM: stm.CMSerialize, NoSerialLock: *noLock}
		if *stmAlg != "" {
			if sc.Algorithm, err = stm.ParseAlgorithm(*stmAlg); err != nil {
				log.Fatal(err)
			}
		}
		if *cmStr != "" {
			if sc.CM, err = stm.ParseCM(*cmStr); err != nil {
				log.Fatal(err)
			}
		}
		conf.STM = &sc
	}
	// Validate refuses flag combinations New would otherwise clamp silently
	// or panic on, with the offending field in the message.
	if err := conf.Validate(); err != nil {
		log.Fatal(err)
	}

	cache := engine.New(conf)
	cache.Start()
	if *trace {
		cache.EnableTracing()
	}
	if mode, err := txtrace.ParseMode(*txtraceMd); err != nil {
		log.Fatal(err)
	} else if mode != txtrace.ModeOff {
		cache.EnableTxTrace(mode)
	}
	if *fprint {
		cache.EnableFingerprint()
	}
	srv, err := server.ListenConfig(cache, server.Config{
		Addr:      *addr,
		EventLoop: *eventLoop,
		Workers:   *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	transport := "goroutine-per-conn"
	if srv.EventLoop() {
		transport = "event-loop"
	}
	log.Printf("tm-memcached serving on %s (branch %s, %s transport)", srv.Addr(), b, transport)
	var dbg interface{ Close() error }
	if *debugAddr != "" {
		d, bound, err := server.ListenDebugServer(cache, srv, *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		dbg = d
		log.Printf("debug endpoint on http://%s/debug/vars (also /metrics, /debug/pprof/, /debug/tm, /debug/trace, /debug/fingerprint)", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if dbg != nil {
		dbg.Close()
	}
	srv.Close()
	cache.Stop()
}
