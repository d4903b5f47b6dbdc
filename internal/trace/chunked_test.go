package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// genAccesses produces a deterministic access stream with realistic
// varint-width diversity (small and large PCs/addresses, all types/cores).
func genAccesses(n int, seed uint64) []Access {
	rng := xrand.New(seed)
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{
			PC:   rng.Uint64() >> uint(rng.Intn(58)),
			Addr: rng.Uint64() >> uint(rng.Intn(58)),
			Type: AccessType(rng.Intn(int(NumAccessTypes))),
			Core: uint8(rng.Intn(4)),
		}
	}
	return out
}

func writeChunked(t *testing.T, accesses []Access, opts ChunkedWriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := NewChunkedWriter(&buf, opts)
	for _, a := range accesses {
		if err := cw.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cw.NumAccesses(); got != uint64(len(accesses)) {
		t.Fatalf("NumAccesses = %d, want %d", got, len(accesses))
	}
	return buf.Bytes()
}

func TestChunkedRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			for _, frame := range []int{1, 3, 64, 1024} {
				accesses := genAccesses(n, uint64(n)*7+uint64(frame))
				data := writeChunked(t, accesses, ChunkedWriterOptions{FrameAccesses: frame, Codec: codec})

				cf, err := NewChunkedFile(bytes.NewReader(data), int64(len(data)))
				if err != nil {
					t.Fatalf("codec=%v n=%d frame=%d: open indexed: %v", codec, n, frame, err)
				}
				if cf.NumAccesses() != uint64(n) {
					t.Fatalf("NumAccesses = %d, want %d", cf.NumAccesses(), n)
				}
				var all []Access
				var fb []Access
				for i := 0; i < cf.Frames(); i++ {
					if cf.FrameStart(i) != uint64(len(all)) {
						t.Fatalf("FrameStart(%d) = %d, want %d", i, cf.FrameStart(i), len(all))
					}
					fb, err = cf.ReadFrameAt(i, fb)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, fb...)
				}
				if len(all) != n {
					t.Fatalf("indexed read: got %d records, want %d", len(all), n)
				}
				for i := range all {
					if all[i] != accesses[i] {
						t.Fatalf("indexed record %d mismatch", i)
					}
				}
			}
		}
	}
}

// TestChunkedReadFrameStreaming: reading frame by frame into one reused
// buffer, forwards and backwards, yields every record exactly once.
func TestChunkedReadFrameStreaming(t *testing.T) {
	accesses := genAccesses(500, 3)
	data := writeChunked(t, accesses, ChunkedWriterOptions{FrameAccesses: 64})
	cf, err := NewChunkedFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var fb []Access
	for _, backward := range []bool{false, true} {
		got := make([]Access, len(accesses))
		n := 0
		for k := 0; k < cf.Frames(); k++ {
			i := k
			if backward {
				i = cf.Frames() - 1 - k
			}
			if fb, err = cf.ReadFrameAt(i, fb); err != nil {
				t.Fatal(err)
			}
			copy(got[cf.FrameStart(i):], fb)
			n += len(fb)
		}
		if n != len(accesses) {
			t.Fatalf("backward=%v: got %d records, want %d", backward, n, len(accesses))
		}
		for i := range got {
			if got[i] != accesses[i] {
				t.Fatalf("backward=%v: record %d mismatch", backward, i)
			}
		}
	}
}

// TestChunkedTruncationRejected: every strict prefix of a valid container
// must fail (with ErrCorrupt or an unexpected-EOF style error), never
// silently return fewer records.
func TestChunkedTruncationRejected(t *testing.T) {
	accesses := genAccesses(300, 5)
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		data := writeChunked(t, accesses, ChunkedWriterOptions{FrameAccesses: 32, Codec: codec})
		for _, cut := range []int{len(data) - 1, len(data) - 7, len(data) / 2, len(chunkedMagic) + 8} {
			trunc := data[:cut]

			// Indexed open must fail outright (trailer or index is gone).
			if _, err := NewChunkedFile(bytes.NewReader(trunc), int64(len(trunc))); err == nil {
				t.Fatalf("codec=%v cut=%d: indexed open of truncated file succeeded", codec, cut)
			}
		}
	}
}

// TestChunkedBitFlipRejected: flipping any single bit after the header must
// be detected, by the payload CRC (or a structural check) in the frame
// region and by the index CRC or trailer checks after it.
func TestChunkedBitFlipRejected(t *testing.T) {
	accesses := genAccesses(256, 11)
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		data := writeChunked(t, accesses, ChunkedWriterOptions{FrameAccesses: 64, Codec: codec})
		headLen := len(chunkedMagic) + 6
		step := 97 // sample positions; every byte would be slow
		for pos := headLen; pos < len(data); pos += step {
			for bit := uint(0); bit < 8; bit += 3 {
				mut := append([]byte(nil), data...)
				mut[pos] ^= 1 << bit

				cfOK := false
				if cf, err := NewChunkedFile(bytes.NewReader(mut), int64(len(mut))); err == nil {
					cfOK = true
					var fb []Access
					for i := 0; i < cf.Frames(); i++ {
						if fb, err = cf.ReadFrameAt(i, fb); err != nil {
							cfOK = false
							break
						}
					}
				}
				if cfOK {
					t.Fatalf("codec=%v: bit flip at byte %d bit %d went undetected", codec, pos, bit)
				}
			}
		}
	}
}

func TestChunkedWriterAfterClose(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChunkedWriter(&buf, ChunkedWriterOptions{})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(Access{}); err == nil {
		t.Fatal("Write after Close succeeded")
	}
}

func TestChunkedBadMagic(t *testing.T) {
	data := []byte("NOTRLRC1\nxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	if _, err := NewChunkedFile(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestSliceFramesMatchesChunkedFile(t *testing.T) {
	accesses := genAccesses(777, 21)
	data := writeChunked(t, accesses, ChunkedWriterOptions{FrameAccesses: 100})
	cf, err := NewChunkedFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	sf := NewSliceFrames(accesses, 100)
	if sf.Frames() != cf.Frames() || sf.NumAccesses() != cf.NumAccesses() {
		t.Fatalf("shape mismatch: slice %d/%d vs file %d/%d",
			sf.Frames(), sf.NumAccesses(), cf.Frames(), cf.NumAccesses())
	}
	var a, b []Access
	for i := 0; i < sf.Frames(); i++ {
		if sf.FrameStart(i) != cf.FrameStart(i) {
			t.Fatalf("FrameStart(%d): %d vs %d", i, sf.FrameStart(i), cf.FrameStart(i))
		}
		if a, err = sf.ReadFrameAt(i, a); err != nil {
			t.Fatal(err)
		}
		if b, err = cf.ReadFrameAt(i, b); err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("frame %d: %d vs %d records", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("frame %d record %d mismatch", i, j)
			}
		}
	}
}

// TestChunkedFlateSmaller sanity-checks that compression engages: a
// highly regular trace must be smaller with CodecFlate than CodecRaw.
func TestChunkedFlateSmaller(t *testing.T) {
	accesses := make([]Access, 20000)
	for i := range accesses {
		accesses[i] = Access{PC: 0x400000, Addr: uint64(i%64) * 64, Type: Load}
	}
	raw := writeChunked(t, accesses, ChunkedWriterOptions{Codec: CodecRaw})
	fl := writeChunked(t, accesses, ChunkedWriterOptions{Codec: CodecFlate})
	if len(fl) >= len(raw) {
		t.Fatalf("flate (%d bytes) not smaller than raw (%d bytes)", len(fl), len(raw))
	}
}

// TestChunkedOversizedPayloadRejected: a frame header whose payload length
// runs past the end of the file, or whose raw length exceeds what its
// records can occupy, is rejected before the buffer is allocated, so a
// tiny corrupt file cannot cost a 128MB allocation. The raw length is
// outside the payload CRC, so a single flipped bit can do this to a flate
// frame.
func TestChunkedOversizedPayloadRejected(t *testing.T) {
	frame := len(chunkedMagic) + 6
	for _, c := range []struct {
		name  string
		codec Codec
		field []int // header offsets (after the marker) set to 1<<27
	}{
		{"payload", CodecRaw, []int{1, 5}},
		{"flate raw", CodecFlate, []int{1}},
	} {
		data := writeChunked(t, []Access{{PC: 1, Addr: 1}}, ChunkedWriterOptions{Codec: c.codec})
		for _, off := range c.field {
			binary.LittleEndian.PutUint32(data[frame+off:], 1<<27)
		}
		cf, err := NewChunkedFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = cf.ReadFrameAt(0, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: rejecting a %d-byte file allocated %d bytes", c.name, len(data), grew)
		}
	}
}
