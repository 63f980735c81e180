// Command mctop is a live terminal console for a running tm-memcached
// server: it polls the stats surface (stats, stats tm, stats conflicts,
// stats eventloop) at a fixed interval and renders one screen of command
// and transaction rates, per-shard commits, aborts and read-only fast-path
// commits, the hottest conflict label and the heaviest who-aborted-whom
// edge, plus transport queue depths and poller counters.
//
//	mctop -addr 127.0.0.1:11211
//	mctop -addr 127.0.0.1:11211 -interval 2s
//	mctop -addr 127.0.0.1:11211 -once        # one frame, no screen control
//
// The conflict line needs transaction observability on the server (-trace,
// or POST /debug/tm?enable=1); without it the line reads "tracing off".
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/mctop"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:11211", "server address to poll")
		interval = flag.Duration("interval", time.Second, "poll interval")
		once     = flag.Bool("once", false, "print a single frame and exit (no screen clearing)")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-poll dial+query timeout")
	)
	flag.Parse()

	var prev *mctop.Frame
	for {
		cur, err := mctop.Fetch(*addr, *timeout)
		if err != nil {
			if *once {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "mctop: %v (retrying)\n", err)
			time.Sleep(*interval)
			continue
		}
		out := mctop.Render(cur, prev)
		if *once {
			fmt.Print(out)
			return
		}
		// Clear and home; plain ANSI keeps this dependency-free.
		fmt.Print("\x1b[2J\x1b[H" + out)
		prev = cur
		time.Sleep(*interval)
	}
}
