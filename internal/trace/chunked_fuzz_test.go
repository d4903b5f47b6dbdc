package trace

import (
	"bytes"
	"testing"
	"testing/quick"
)

// readAllFrames opens data as an indexed container and reads every frame,
// failing t if the reader produces more records than input bytes (every
// record takes at least one payload byte). It returns the records read
// before the first error.
func readAllFrames(t *testing.T, data []byte) []Access {
	t.Helper()
	cf, err := NewChunkedFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil
	}
	var out, fb []Access
	for i := 0; i < cf.Frames(); i++ {
		if fb, err = cf.ReadFrameAt(i, fb); err != nil {
			break
		}
		out = append(out, fb...)
		if len(out) > len(data) {
			t.Fatalf("indexed reader produced %d records from %d bytes", len(out), len(data))
		}
	}
	return out
}

// FuzzChunkedFile: arbitrary bytes must produce records or an error —
// never a panic, unbounded allocation, or an infinite loop — on the
// indexed read path, and never more records than input bytes. Valid
// containers seeded into the corpus must round-trip.
func FuzzChunkedFile(f *testing.F) {
	// Seed with valid containers of both codecs so the fuzzer mutates
	// structurally interesting inputs, plus raw garbage.
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		var buf bytes.Buffer
		cw := NewChunkedWriter(&buf, ChunkedWriterOptions{FrameAccesses: 8, Codec: codec})
		for _, a := range genAccesses(50, uint64(codec)+1) {
			if err := cw.Write(a); err != nil {
				f.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(chunkedMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) { readAllFrames(t, data) })
}

// TestChunkedReaderNeverPanicsOnGarbage: arbitrary bytes after a valid
// header, and arbitrary bytes followed by a well-formed trailer, must make
// NewChunkedFile or ReadFrameAt error cleanly.
func TestChunkedReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(payload []byte, indexOff uint8) bool {
		var buf bytes.Buffer
		buf.WriteString(chunkedMagic)
		buf.Write([]byte{chunkedVersion, 0, 0, 1, 0, 0}) // codec raw, frameCap 256
		buf.Write(payload)
		readAllFrames(t, buf.Bytes())
		// Point a trailer into the garbage so the index parser runs too.
		var tail [8]byte
		tail[0] = byte(len(chunkedMagic)+6) + indexOff%16
		buf.Write(tail[:])
		buf.WriteString(chunkedTrailer)
		readAllFrames(t, buf.Bytes())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
