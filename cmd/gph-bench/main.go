// Command gph-bench writes the reproduction ledger (internal/bench): for
// each artifact of the GPH paper's evaluation (§VII) that this tree keeps,
// the paper's claim, this tree's table and the verdict the table decides.
// It takes no flags:
//
//	go run ./cmd/gph-bench > REPRODUCTION.md
package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"

	"gph/internal/bench"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: gph-bench > REPRODUCTION.md (it takes no flags)")
		os.Exit(2)
	}
	// At n = 10⁶ the live heap nears 1 GiB, and the collector's default
	// pacing would let the heap grow to twice that. The ledger must stay
	// under 2 GiB on a shared host, so the collector works harder here.
	debug.SetMemoryLimit(1536 << 20)
	out := bufio.NewWriter(os.Stdout)
	err := bench.Ledger(out, bench.Config{})
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gph-bench: %v\n", err)
		os.Exit(1)
	}
}
