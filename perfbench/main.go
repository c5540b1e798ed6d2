// Command perfbench is the repository's benchmark.  It runs one named
// workload cold — every measured pass in a fresh process — checks each
// output against pinned digests, and prints the workload's end-to-end
// metrics (or, with --trace 1, its per-layer metrics) as the last line
// of standard output:
//
//	perfbench --workload paper-mem --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layers they map
// to.  The same binary, invoked as `perfbench pass ...`, is the child
// process that runs one pass.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(passMain(os.Args[2:]))
	}
	code, err := driverMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}
