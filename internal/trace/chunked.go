// chunked.go implements the chunked on-disk access-trace container that
// backs the streaming pipeline: multi-hundred-million-access traces are
// written and replayed in O(frame) memory, and an embedded frame index
// makes any frame addressable without scanning the file.
//
// Layout (all integers little-endian):
//
//	file   := magic "RLRC1\n" | header | frame* | index | trailer
//	header := u8 version(=1) | u8 codec | u32 frameCap
//	frame  := 'F' | u32 rawLen | u32 payloadLen | u32 count | u32 crc | payload
//	index  := 'I' | u32 frameCount | frameCount×(u64 offset | u64 startSeq | u32 count) | u32 crc
//	trailer:= u64 indexOffset | "RLRC1E"
//
// Each frame's payload is a run of varint records (one type/core byte
// type<<2|core, uvarint PC, uvarint Addr), independently decodable per
// frame; with CodecFlate the payload is DEFLATE-compressed and rawLen
// records the uncompressed size. The CRC covers the stored (possibly
// compressed) payload, so bit flips are detected before decompression.
// Truncated files fail at open: a complete file always ends in the index
// marker and trailer.
//
// This is the repository's one on-disk trace format, and ChunkedFile is
// its one reader: it needs an io.ReaderAt plus the file size, validates
// the trailer and index CRC at open, and serves random frame-granular
// reads — the access path of rlrsim -trace, tracegen -stat, and the
// representative-interval selector.
package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Chunked-container constants.
const (
	chunkedMagic   = "RLRC1\n"
	chunkedTrailer = "RLRC1E"
	chunkedVersion = 1

	frameMarker = 'F'
	indexMarker = 'I'

	// DefaultFrameAccesses is the default frame granularity: 64Ki accesses
	// is ~300KB raw per frame (≤5 bytes/access typical), small enough that
	// per-frame buffers are noise next to any policy's own state and large
	// enough that frame overhead (17 bytes + index entry) is <0.01%.
	DefaultFrameAccesses = 1 << 16

	// maxFramePayload bounds a frame's stored and raw payload size so a
	// corrupt or adversarial length field cannot drive a huge allocation.
	maxFramePayload = 1 << 28

	// maxRecordBytes is the largest encoded record: the type/core byte
	// and two uvarints.
	maxRecordBytes = 1 + 2*binary.MaxVarintLen64
)

// Codec selects the per-frame payload encoding.
type Codec uint8

// Supported frame codecs.
const (
	CodecRaw   Codec = 0 // varint records, stored as-is
	CodecFlate Codec = 1 // varint records, DEFLATE-compressed
)

func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecFlate:
		return "flate"
	default:
		return fmt.Sprintf("Codec(%d)", uint8(c))
	}
}

// ErrCorrupt wraps all structural failures (bad CRC, bad marker, length
// overflow, trailing garbage) so callers can distinguish corruption from
// plain I/O errors with errors.Is.
var ErrCorrupt = errors.New("trace: corrupt chunked container")

// ErrBadMagic is returned when a file does not start with the chunked
// container's magic.
var ErrBadMagic = errors.New("trace: unrecognized trace file magic")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// FrameSource provides frame-granular random access to an access trace.
// Implementations: *ChunkedFile (on disk) and *SliceFrames (in memory).
// ReadFrameAt must be safe for concurrent use with distinct buffers.
type FrameSource interface {
	// Frames returns the number of frames.
	Frames() int
	// NumAccesses returns the total access count.
	NumAccesses() uint64
	// FrameStart returns the global sequence number of frame i's first
	// access (frames partition [0, NumAccesses) in order).
	FrameStart(i int) uint64
	// ReadFrameAt appends frame i's accesses to buf[:0] and returns it.
	ReadFrameAt(i int, buf []Access) ([]Access, error)
}

// frameMeta is one frame-index entry.
type frameMeta struct {
	Offset   uint64 // file offset of the frame marker byte
	StartSeq uint64 // global sequence number of the frame's first access
	Count    uint32 // accesses in the frame
}

// ChunkedWriterOptions configures a ChunkedWriter.
type ChunkedWriterOptions struct {
	// FrameAccesses is the number of accesses per frame (default
	// DefaultFrameAccesses).
	FrameAccesses int
	// Codec selects the payload encoding (default CodecRaw).
	Codec Codec
}

// ChunkedWriter streams Access records into the chunked container format.
// It buffers one frame at a time, so memory use is O(FrameAccesses)
// regardless of trace length. Close must be called to emit the final
// partial frame, the index, and the trailer.
type ChunkedWriter struct {
	w      io.Writer
	opts   ChunkedWriterOptions
	err    error
	closed bool

	off     uint64 // bytes written so far
	started bool

	enc     bytes.Buffer // raw varint payload of the current frame
	count   uint32       // accesses in the current frame
	seq     uint64       // total accesses written
	index   []frameMeta
	varbuf  [binary.MaxVarintLen64]byte
	scratch bytes.Buffer // compressed payload scratch
	fw      *flate.Writer
}

// NewChunkedWriter returns a ChunkedWriter over w. The header is written
// lazily on the first record (or on Close for an empty trace).
func NewChunkedWriter(w io.Writer, opts ChunkedWriterOptions) *ChunkedWriter {
	if opts.FrameAccesses <= 0 {
		opts.FrameAccesses = DefaultFrameAccesses
	}
	return &ChunkedWriter{w: w, opts: opts}
}

func (cw *ChunkedWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(p)
	cw.off += uint64(n)
	cw.err = err
}

func (cw *ChunkedWriter) ensureHeader() {
	if cw.started || cw.err != nil {
		return
	}
	cw.started = true
	var hdr [len(chunkedMagic) + 6]byte
	copy(hdr[:], chunkedMagic)
	hdr[len(chunkedMagic)] = chunkedVersion
	hdr[len(chunkedMagic)+1] = byte(cw.opts.Codec)
	binary.LittleEndian.PutUint32(hdr[len(chunkedMagic)+2:], uint32(cw.opts.FrameAccesses))
	cw.write(hdr[:])
}

// Write appends one access record, flushing a full frame as a side effect.
func (cw *ChunkedWriter) Write(a Access) error {
	if cw.closed {
		return errors.New("trace: ChunkedWriter used after Close")
	}
	if cw.err != nil {
		return cw.err
	}
	cw.enc.WriteByte(byte(a.Type)<<2 | a.Core&0x3)
	n := binary.PutUvarint(cw.varbuf[:], a.PC)
	cw.enc.Write(cw.varbuf[:n])
	n = binary.PutUvarint(cw.varbuf[:], a.Addr)
	cw.enc.Write(cw.varbuf[:n])
	cw.count++
	cw.seq++
	if int(cw.count) >= cw.opts.FrameAccesses {
		cw.flushFrame()
	}
	return cw.err
}

// flushFrame emits the buffered frame (if any) and resets the buffer.
func (cw *ChunkedWriter) flushFrame() {
	if cw.count == 0 || cw.err != nil {
		return
	}
	cw.ensureHeader()
	raw := cw.enc.Bytes()
	payload := raw
	if cw.opts.Codec == CodecFlate {
		cw.scratch.Reset()
		if cw.fw == nil {
			fw, err := flate.NewWriter(&cw.scratch, flate.BestSpeed)
			if err != nil {
				cw.err = err
				return
			}
			cw.fw = fw
		} else {
			cw.fw.Reset(&cw.scratch)
		}
		if _, err := cw.fw.Write(raw); err != nil {
			cw.err = err
			return
		}
		if err := cw.fw.Close(); err != nil {
			cw.err = err
			return
		}
		payload = cw.scratch.Bytes()
	}
	meta := frameMeta{
		Offset:   cw.off,
		StartSeq: cw.seq - uint64(cw.count),
		Count:    cw.count,
	}
	var hdr [17]byte
	hdr[0] = frameMarker
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(raw)))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:], cw.count)
	binary.LittleEndian.PutUint32(hdr[13:], crc32.ChecksumIEEE(payload))
	cw.write(hdr[:])
	cw.write(payload)
	if cw.err == nil {
		cw.index = append(cw.index, meta)
	}
	cw.enc.Reset()
	cw.count = 0
}

// NumAccesses returns the number of accesses written so far.
func (cw *ChunkedWriter) NumAccesses() uint64 { return cw.seq }

// Close flushes the final partial frame and writes the index and trailer.
// The ChunkedWriter must not be used afterwards. Close does not close the
// underlying writer.
func (cw *ChunkedWriter) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.closed = true
	cw.flushFrame()
	cw.ensureHeader()
	if cw.err != nil {
		return cw.err
	}
	indexOff := cw.off
	var buf bytes.Buffer
	buf.WriteByte(indexMarker)
	var u32 [4]byte
	var u64b [8]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(cw.index)))
	buf.Write(u32[:])
	for _, m := range cw.index {
		binary.LittleEndian.PutUint64(u64b[:], m.Offset)
		buf.Write(u64b[:])
		binary.LittleEndian.PutUint64(u64b[:], m.StartSeq)
		buf.Write(u64b[:])
		binary.LittleEndian.PutUint32(u32[:], m.Count)
		buf.Write(u32[:])
	}
	// The index CRC covers everything after the marker byte.
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(buf.Bytes()[1:]))
	buf.Write(u32[:])
	binary.LittleEndian.PutUint64(u64b[:], indexOff)
	buf.Write(u64b[:])
	buf.WriteString(chunkedTrailer)
	cw.write(buf.Bytes())
	return cw.err
}

// decodeFrame validates a stored frame payload's CRC, decompresses it if
// needed, and appends exactly count records to buf[:0].
func decodeFrame(codec Codec, rawLen, count, wantCRC uint32, payload []byte, buf []Access) ([]Access, error) {
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, corruptf("frame CRC mismatch")
	}
	raw := payload
	switch codec {
	case CodecRaw:
		if rawLen != uint32(len(payload)) {
			return nil, corruptf("raw frame length %d != stored length %d", rawLen, len(payload))
		}
	case CodecFlate:
		raw = make([]byte, rawLen)
		fr := flate.NewReader(bytes.NewReader(payload))
		if _, err := io.ReadFull(fr, raw); err != nil {
			return nil, corruptf("frame decompress: %v", err)
		}
		// One extra read must hit EOF, or the frame holds trailing garbage.
		var one [1]byte
		if n, _ := fr.Read(one[:]); n != 0 {
			return nil, corruptf("frame larger than declared raw length %d", rawLen)
		}
	default:
		return nil, corruptf("unknown codec %d", codec)
	}
	buf = buf[:0]
	pos := 0
	for i := uint32(0); i < count; i++ {
		if pos >= len(raw) {
			return nil, corruptf("frame truncated at record %d/%d", i, count)
		}
		tb := raw[pos]
		pos++
		var a Access
		a.Type = AccessType(tb >> 2)
		a.Core = tb & 0x3
		if a.Type >= NumAccessTypes {
			return nil, corruptf("record %d: access type %d", i, a.Type)
		}
		v, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return nil, corruptf("record %d: bad PC varint", i)
		}
		a.PC = v
		pos += n
		v, n = binary.Uvarint(raw[pos:])
		if n <= 0 {
			return nil, corruptf("record %d: bad Addr varint", i)
		}
		a.Addr = v
		pos += n
		buf = append(buf, a)
	}
	if pos != len(raw) {
		return nil, corruptf("%d trailing bytes after %d records", len(raw)-pos, count)
	}
	return buf, nil
}

// readFrameHeader parses the 16 bytes after a frame marker and validates
// the length fields against maxFramePayload.
func readFrameHeader(hdr []byte) (rawLen, payloadLen, count, crc uint32, err error) {
	rawLen = binary.LittleEndian.Uint32(hdr[0:])
	payloadLen = binary.LittleEndian.Uint32(hdr[4:])
	count = binary.LittleEndian.Uint32(hdr[8:])
	crc = binary.LittleEndian.Uint32(hdr[12:])
	if rawLen > maxFramePayload || payloadLen > maxFramePayload {
		return 0, 0, 0, 0, corruptf("frame payload length %d/%d exceeds limit", rawLen, payloadLen)
	}
	if count > rawLen && count > 0 {
		// Every record takes at least one byte.
		return 0, 0, 0, 0, corruptf("frame count %d exceeds raw length %d", count, rawLen)
	}
	if uint64(rawLen) > uint64(count)*maxRecordBytes {
		// The payload CRC does not cover rawLen: bound it before a flate
		// frame allocates rawLen bytes to decompress into.
		return 0, 0, 0, 0, corruptf("frame raw length %d exceeds %d records", rawLen, count)
	}
	return rawLen, payloadLen, count, crc, nil
}

// ChunkedFile is an indexed, random-access view of a chunked container. It
// validates the trailer and index CRC at open time; frame payload CRCs are
// validated on each read. ReadFrameAt is safe for concurrent use.
type ChunkedFile struct {
	ra    io.ReaderAt
	size  int64
	codec Codec
	index []frameMeta
	total uint64
	owned *os.File // set by OpenChunked so Close can release it
}

// OpenChunked opens path as an indexed chunked trace.
func OpenChunked(path string) (*ChunkedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf, err := NewChunkedFile(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	cf.owned = f
	return cf, nil
}

// NewChunkedFile builds an indexed view over any io.ReaderAt of the given
// total size.
func NewChunkedFile(ra io.ReaderAt, size int64) (*ChunkedFile, error) {
	headLen := len(chunkedMagic) + 6
	trailerLen := 8 + len(chunkedTrailer)
	if size < int64(headLen+1+trailerLen) { // header + index marker + trailer minimum
		return nil, corruptf("file too small (%d bytes): %v", size, io.ErrUnexpectedEOF)
	}
	head := make([]byte, headLen)
	if _, err := ra.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if string(head[:len(chunkedMagic)]) != chunkedMagic {
		return nil, ErrBadMagic
	}
	if head[len(chunkedMagic)] != chunkedVersion {
		return nil, corruptf("unsupported version %d", head[len(chunkedMagic)])
	}
	codec := Codec(head[len(chunkedMagic)+1])
	if codec > CodecFlate {
		return nil, corruptf("unknown codec %d", codec)
	}
	tail := make([]byte, trailerLen)
	if _, err := ra.ReadAt(tail, size-int64(trailerLen)); err != nil {
		return nil, err
	}
	if string(tail[8:]) != chunkedTrailer {
		return nil, corruptf("missing trailer (truncated file?)")
	}
	indexOff := int64(binary.LittleEndian.Uint64(tail))
	if indexOff < int64(headLen) || indexOff >= size-int64(trailerLen) {
		return nil, corruptf("index offset %d out of range", indexOff)
	}
	indexLen := size - int64(trailerLen) - indexOff
	idx := make([]byte, indexLen)
	if _, err := ra.ReadAt(idx, indexOff); err != nil {
		return nil, err
	}
	if idx[0] != indexMarker {
		return nil, corruptf("bad index marker 0x%02x", idx[0])
	}
	body := idx[1:]
	if len(body) < 8 {
		return nil, corruptf("index too small")
	}
	crc := binary.LittleEndian.Uint32(body[len(body)-4:])
	body = body[:len(body)-4]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, corruptf("index CRC mismatch")
	}
	frameCount := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(len(body)) != uint64(frameCount)*20 {
		return nil, corruptf("index length %d != %d frames", len(body), frameCount)
	}
	cf := &ChunkedFile{ra: ra, size: size, codec: codec, index: make([]frameMeta, frameCount)}
	var total uint64
	for i := range cf.index {
		e := body[i*20:]
		m := frameMeta{
			Offset:   binary.LittleEndian.Uint64(e),
			StartSeq: binary.LittleEndian.Uint64(e[8:]),
			Count:    binary.LittleEndian.Uint32(e[16:]),
		}
		if m.Offset >= uint64(indexOff) || m.StartSeq != total || m.Count == 0 {
			return nil, corruptf("index entry %d inconsistent", i)
		}
		cf.index[i] = m
		total += uint64(m.Count)
	}
	cf.total = total
	return cf, nil
}

// Close releases the underlying file when the ChunkedFile was opened with
// OpenChunked; it is a no-op otherwise.
func (cf *ChunkedFile) Close() error {
	if cf.owned != nil {
		return cf.owned.Close()
	}
	return nil
}

// Frames implements FrameSource.
func (cf *ChunkedFile) Frames() int { return len(cf.index) }

// NumAccesses implements FrameSource.
func (cf *ChunkedFile) NumAccesses() uint64 { return cf.total }

// FrameStart implements FrameSource.
func (cf *ChunkedFile) FrameStart(i int) uint64 { return cf.index[i].StartSeq }

// ReadFrameAt implements FrameSource.
func (cf *ChunkedFile) ReadFrameAt(i int, buf []Access) ([]Access, error) {
	if i < 0 || i >= len(cf.index) {
		return nil, fmt.Errorf("trace: frame %d out of range [0,%d)", i, len(cf.index))
	}
	m := cf.index[i]
	var hdr [17]byte
	if _, err := cf.ra.ReadAt(hdr[:], int64(m.Offset)); err != nil {
		return nil, corruptf("frame %d header: %v", i, err)
	}
	if hdr[0] != frameMarker {
		return nil, corruptf("frame %d: bad marker 0x%02x", i, hdr[0])
	}
	rawLen, payloadLen, count, crc, err := readFrameHeader(hdr[1:])
	if err != nil {
		return nil, err
	}
	if count != m.Count {
		return nil, corruptf("frame %d: header count %d != index count %d", i, count, m.Count)
	}
	// Check the payload fits in the file before allocating for it, so a
	// corrupt length field cannot cost up to maxFramePayload bytes.
	if int64(m.Offset)+17+int64(payloadLen) > cf.size {
		return nil, corruptf("frame %d: payload length %d runs past the end of the file", i, payloadLen)
	}
	payload := make([]byte, payloadLen)
	if _, err := cf.ra.ReadAt(payload, int64(m.Offset)+17); err != nil {
		return nil, corruptf("frame %d payload: %v", i, err)
	}
	return decodeFrame(cf.codec, rawLen, count, crc, payload, buf)
}

// SliceFrames adapts an in-memory []Access to the FrameSource interface,
// so every consumer of the streaming pipeline also works on materialized
// traces (tests, the experiment harness's memoized captures).
type SliceFrames struct {
	accesses []Access
	frame    int
}

// NewSliceFrames wraps accesses with the given frame granularity (<= 0
// uses DefaultFrameAccesses).
func NewSliceFrames(accesses []Access, frameAccesses int) *SliceFrames {
	if frameAccesses <= 0 {
		frameAccesses = DefaultFrameAccesses
	}
	return &SliceFrames{accesses: accesses, frame: frameAccesses}
}

// Frames implements FrameSource.
func (sf *SliceFrames) Frames() int {
	return (len(sf.accesses) + sf.frame - 1) / sf.frame
}

// NumAccesses implements FrameSource.
func (sf *SliceFrames) NumAccesses() uint64 { return uint64(len(sf.accesses)) }

// FrameStart implements FrameSource.
func (sf *SliceFrames) FrameStart(i int) uint64 { return uint64(i * sf.frame) }

// ReadFrameAt implements FrameSource, copying the frame's records into
// buf[:0] to honour the append-to-buf contract.
func (sf *SliceFrames) ReadFrameAt(i int, buf []Access) ([]Access, error) {
	start := i * sf.frame
	if start < 0 || start >= len(sf.accesses) {
		return nil, fmt.Errorf("trace: frame %d out of range [0,%d)", i, sf.Frames())
	}
	end := start + sf.frame
	if end > len(sf.accesses) {
		end = len(sf.accesses)
	}
	return append(buf[:0], sf.accesses[start:end]...), nil
}
