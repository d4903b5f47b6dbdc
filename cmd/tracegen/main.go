// Command tracegen captures LLC access traces from the synthetic workload
// suite (the §III-A ⟨PC, type, address⟩ records, captured from a timing run
// with an LRU LLC) and writes them in the chunked trace container, the
// format rlrsim -trace replays.
//
// Usage:
//
//	tracegen -list
//	tracegen -workload 429.mcf -n 200000 -o mcf.llct
//	tracegen -workload 429.mcf -compress -o mcf.llct
//	tracegen -stat mcf.llct
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list workloads")
		name     = flag.String("workload", "", "workload name")
		n        = flag.Int("n", 1_000_000, "LLC accesses to capture")
		out      = flag.String("o", "", "output file (default stdout)")
		compress = flag.Bool("compress", false, "flate-compress frame payloads")
		frame    = flag.Int("frame", 0, "accesses per frame (0 = default)")
		stat     = flag.String("stat", "", "print frame count, accesses, and unique blocks of a chunked trace, then exit")
	)
	flag.Parse()

	if *stat != "" {
		if err := statChunked(*stat); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *list {
		fmt.Println("SPEC CPU 2006-like workloads:")
		for _, w := range workloads.SPECNames() {
			fmt.Println("  " + w)
		}
		fmt.Println("CloudSuite-like workloads:")
		for _, w := range workloads.CloudNames() {
			fmt.Println("  " + w)
		}
		return
	}
	spec, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var w *os.File = os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer w.Close()
	}

	sys := uarch.NewSystem(uarch.DefaultConfig(1), policy.MustNew("lru"))
	opts := trace.ChunkedWriterOptions{FrameAccesses: *frame}
	if *compress {
		opts.Codec = trace.CodecFlate
	}
	cw := trace.NewChunkedWriter(w, opts)
	captured := 0
	sys.Hierarchy().SetLLCObserver(func(a trace.Access, hit bool) {
		if captured < *n {
			if err := cw.Write(a); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			captured++
		}
	})
	gen := workloads.New(spec)
	for captured < *n {
		sys.RunSingle(gen, 0, 100_000)
	}
	if err := cw.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d LLC accesses for %s\n", captured, spec.Name)
}
