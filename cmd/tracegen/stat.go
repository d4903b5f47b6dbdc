package main

import (
	"fmt"

	"repro/internal/trace"
)

// statChunked prints a summary of a chunked LLC trace: frames, accesses,
// per-type counts, and unique 64-byte blocks. It streams frame by frame,
// so memory stays O(frame + unique blocks) however large the trace is.
func statChunked(path string) error {
	cf, err := trace.OpenChunked(path)
	if err != nil {
		return err
	}
	defer cf.Close()

	blocks := make(map[uint64]struct{})
	var byType [trace.NumAccessTypes]uint64
	var buf []trace.Access
	for i := 0; i < cf.Frames(); i++ {
		buf, err = cf.ReadFrameAt(i, buf)
		if err != nil {
			return err
		}
		for _, a := range buf {
			blocks[a.Addr>>6] = struct{}{}
			byType[a.Type]++
		}
	}
	fmt.Printf("frames:        %d\n", cf.Frames())
	fmt.Printf("accesses:      %d\n", cf.NumAccesses())
	for t := trace.AccessType(0); t < trace.NumAccessTypes; t++ {
		if byType[t] > 0 {
			fmt.Printf("  %-11s  %d\n", t.String()+":", byType[t])
		}
	}
	fmt.Printf("unique blocks: %d (line size 64)\n", len(blocks))
	return nil
}
