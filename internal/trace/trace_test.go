package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccessTypeString(t *testing.T) {
	cases := map[AccessType]string{
		Load: "LD", RFO: "RFO", Prefetch: "PF", Writeback: "WB",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
	if got := AccessType(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown type String() = %q", got)
	}
}

func TestIsDemand(t *testing.T) {
	if !Load.IsDemand() || !RFO.IsDemand() {
		t.Error("Load/RFO should be demand accesses")
	}
	if Prefetch.IsDemand() || Writeback.IsDemand() {
		t.Error("Prefetch/Writeback should not be demand accesses")
	}
}

// roundTrip writes accesses into a chunked container and reads every frame
// back through ChunkedFile.
func roundTrip(in []Access, opts ChunkedWriterOptions) ([]Access, error) {
	var buf bytes.Buffer
	w := NewChunkedWriter(&buf, opts)
	for _, a := range in {
		if err := w.Write(a); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	cf, err := NewChunkedFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, err
	}
	var out, fb []Access
	for i := 0; i < cf.Frames(); i++ {
		if fb, err = cf.ReadFrameAt(i, fb); err != nil {
			return nil, err
		}
		out = append(out, fb...)
	}
	return out, nil
}

// TestAccessRoundTrip: every access type, every core id, and PCs and
// addresses at the varint extremes survive the container under both
// codecs.
func TestAccessRoundTrip(t *testing.T) {
	in := []Access{
		{PC: 0x400123, Addr: 0x7fff0040, Type: Load, Core: 0},
		{PC: 0x400127, Addr: 0x7fff0080, Type: RFO, Core: 1},
		{PC: 0, Addr: 0xdead0000, Type: Writeback, Core: 3},
		{PC: 0x400200, Addr: 0x10000, Type: Prefetch, Core: 2},
		{PC: 1<<63 + 5, Addr: 1<<62 + 7, Type: Load, Core: 0},
	}
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		out, err := roundTrip(in, ChunkedWriterOptions{FrameAccesses: 2, Codec: codec})
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%v: round trip mismatch:\n in: %v\nout: %v", codec, in, out)
		}
	}
}

func TestAccessEmptyTrace(t *testing.T) {
	out, err := roundTrip(nil, ChunkedWriterOptions{})
	if err != nil || len(out) != 0 {
		t.Errorf("empty trace: got %v records, err %v", len(out), err)
	}
}

// TestAccessCorruptType: a frame whose CRC is valid but whose record holds
// an access type past Writeback is rejected as corrupt.
func TestAccessCorruptType(t *testing.T) {
	var buf bytes.Buffer
	w := NewChunkedWriter(&buf, ChunkedWriterOptions{})
	if err := w.Write(Access{PC: 1, Addr: 1, Type: Load}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header, then the frame: marker, rawLen, payloadLen, count, CRC,
	// payload. The payload's first byte is the record's type<<2|core.
	frame := len(chunkedMagic) + 6
	payload := frame + 17
	payloadLen := int(binary.LittleEndian.Uint32(data[frame+5:]))
	data[payload] = 0xFC // type 63
	binary.LittleEndian.PutUint32(data[frame+13:], crc32.ChecksumIEEE(data[payload:payload+payloadLen]))

	cf, err := NewChunkedFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.ReadFrameAt(0, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt type read: err = %v, want ErrCorrupt", err)
	}
}

// singleFrameContainer builds a raw-codec container around one frame that
// holds payload and claims count records. Header, frame header, index and
// trailer are all consistent, so only the record decoder can object to
// the payload.
func singleFrameContainer(payload []byte, count uint32) []byte {
	headLen := len(chunkedMagic) + 6
	var buf bytes.Buffer
	buf.WriteString(chunkedMagic)
	buf.Write([]byte{chunkedVersion, byte(CodecRaw), 0, 0, 1, 0}) // frameCap 65536

	var u32 [4]byte
	var u64 [8]byte
	buf.WriteByte(frameMarker)
	for _, v := range []uint32{uint32(len(payload)), uint32(len(payload)), count, crc32.ChecksumIEEE(payload)} {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf.Write(u32[:])
	}
	buf.Write(payload)

	indexOff := buf.Len()
	var idx bytes.Buffer
	binary.LittleEndian.PutUint32(u32[:], 1)
	idx.Write(u32[:])
	binary.LittleEndian.PutUint64(u64[:], uint64(headLen))
	idx.Write(u64[:])
	binary.LittleEndian.PutUint64(u64[:], 0)
	idx.Write(u64[:])
	binary.LittleEndian.PutUint32(u32[:], count)
	idx.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(idx.Bytes()))
	idx.Write(u32[:])
	buf.WriteByte(indexMarker)
	buf.Write(idx.Bytes())
	binary.LittleEndian.PutUint64(u64[:], uint64(indexOff))
	buf.Write(u64[:])
	buf.WriteString(chunkedTrailer)
	return buf.Bytes()
}

// TestAccessBadMagic: input that is not a container, and a valid
// container whose magic alone is wrong, are both refused.
func TestAccessBadMagic(t *testing.T) {
	// An input too short to hold a container fails before the magic check.
	short := []byte("NOTATRACE!")
	if _, err := NewChunkedFile(bytes.NewReader(short), int64(len(short))); err == nil {
		t.Error("short non-container input opened")
	}
	var buf bytes.Buffer
	w := NewChunkedWriter(&buf, ChunkedWriterOptions{})
	if err := w.Write(Access{PC: 1, Addr: 1, Type: Load}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0x20
	if _, err := NewChunkedFile(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic error = %v, want ErrBadMagic", err)
	}
}

// TestAccessTruncated: a record cut inside its Addr varint, in a frame
// whose lengths, CRC and index all agree with the cut, is rejected as
// corrupt rather than read as a shorter access.
func TestAccessTruncated(t *testing.T) {
	a := Access{PC: 1 << 40, Addr: 1 << 40, Type: Load}
	var buf bytes.Buffer
	w := NewChunkedWriter(&buf, ChunkedWriterOptions{})
	if err := w.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payloadAt := len(chunkedMagic) + 6 + 17
	payloadLen := int(binary.LittleEndian.Uint32(buf.Bytes()[payloadAt-12:]))
	payload := buf.Bytes()[payloadAt : payloadAt+payloadLen]
	// The hand-built container matches the writer's byte for byte, so the
	// truncated one below differs from a valid file only in the cut.
	if full := singleFrameContainer(payload, 1); !bytes.Equal(full, buf.Bytes()) {
		t.Fatalf("singleFrameContainer disagrees with ChunkedWriter:\n got %x\nwant %x", full, buf.Bytes())
	}

	data := singleFrameContainer(payload[:len(payload)-2], 1)
	cf, err := NewChunkedFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := cf.ReadFrameAt(0, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated record read = %v, %v; want ErrCorrupt", out, err)
	}
}

// TestAccessReaderNeverPanicsOnGarbage: arbitrary bytes as the payload of
// an otherwise well-formed frame reach the record decoder, which must
// return exactly the claimed record count or an error, never panic.
func TestAccessReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(payload []byte, count uint8) bool {
		n := uint32(count) + 1 // the index refuses empty frames
		data := singleFrameContainer(payload, n)
		cf, err := NewChunkedFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Errorf("well-formed container refused: %v", err)
			return false
		}
		out, err := cf.ReadFrameAt(0, nil)
		if err != nil {
			return errors.Is(err, ErrCorrupt)
		}
		return uint32(len(out)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAccessRoundTripProperty(t *testing.T) {
	f := func(pcs, addrs []uint64, types []uint8) bool {
		n := len(pcs)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(types) < n {
			n = len(types)
		}
		in := make([]Access, n)
		for i := 0; i < n; i++ {
			in[i] = Access{
				PC:   pcs[i],
				Addr: addrs[i],
				Type: AccessType(types[i] % 4),
				Core: types[i] >> 2 & 0x3,
			}
		}
		out, err := roundTrip(in, ChunkedWriterOptions{FrameAccesses: 3})
		if err != nil {
			return false
		}
		if len(out) == 0 && n == 0 {
			return true
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
