package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// encodeWholeFrame builds header+payload the way the send path does.
func encodeWholeFrame(m *Message) []byte {
	buf := make([]byte, frameHeaderSize+len(m.Payload))
	encodeFrameHeader(buf, m)
	copy(buf[frameHeaderSize:], m.Payload)
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	in := Message{
		From: 2, To: 1, Tag: TagRenderBatch,
		Payload: []byte("twelve bytes"),
		Ready:   3.5, Bytes: 384, Corr: MakeCorr(7, 2, 41),
	}
	data := encodeWholeFrame(&in)
	out, n, err := DecodeNetFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Errorf("consumed %d of %d bytes", n, len(data))
	}
	if out.From != 2 || out.To != 1 || out.Tag != TagRenderBatch ||
		out.Ready != 3.5 || out.Bytes != 384 || out.Corr != in.Corr {
		t.Errorf("decoded %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("payload = %q", out.Payload)
	}
}

func TestFrameRoundTripEmptyPayload(t *testing.T) {
	in := Message{From: 0, To: 3, Tag: TagFrameDone, Ready: 0, Bytes: 0}
	out, n, err := DecodeNetFrame(encodeWholeFrame(&in))
	if err != nil {
		t.Fatal(err)
	}
	if n != frameHeaderSize || out.Payload != nil {
		t.Errorf("empty frame: consumed %d, payload %v", n, out.Payload)
	}
}

// TestDecodeFrameRejectsCorruption drives the decoder through every
// validation branch with deliberately damaged headers.
func TestDecodeFrameRejectsCorruption(t *testing.T) {
	le := binary.LittleEndian
	valid := func() []byte {
		return encodeWholeFrame(&Message{
			From: 2, To: 1, Tag: TagParticles,
			Payload: []byte("payload"), Ready: 1.0, Bytes: 7,
		})
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated frame header"},
		{"short header", func(b []byte) []byte { return b[:frameHeaderSize-1] }, "truncated frame header"},
		{"bad magic", func(b []byte) []byte { le.PutUint32(b, 0xdeadbeef); return b }, "bad frame magic"},
		{"unknown tag", func(b []byte) []byte { b[36] = byte(numTags); return b }, "unknown frame tag"},
		{"oversized payload length", func(b []byte) []byte {
			le.PutUint32(b[32:], MaxFramePayload+1)
			return b
		}, "exceeds cap"},
		{"billed below payload", func(b []byte) []byte { le.PutUint32(b[28:], 3); return b }, "billed 3 below payload"},
		{"NaN ready", func(b []byte) []byte {
			le.PutUint64(b[12:], math.Float64bits(math.NaN()))
			return b
		}, "ready time"},
		{"infinite ready", func(b []byte) []byte {
			le.PutUint64(b[12:], math.Float64bits(math.Inf(1)))
			return b
		}, "ready time"},
		{"negative ready", func(b []byte) []byte {
			le.PutUint64(b[12:], math.Float64bits(-1.5))
			return b
		}, "ready time"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-2] }, "truncated frame payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeNetFrame(tc.mutate(valid()))
			if err == nil {
				t.Fatal("corrupt frame decoded without error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestDecodeFrameCapBoundsAllocation: the payload-length cap must be
// checked before any allocation — a hostile 4 GiB length field must be
// rejected outright, and the largest legal length accepted.
func TestDecodeFrameCapBoundsAllocation(t *testing.T) {
	var hdr [frameHeaderSize]byte
	encodeFrameHeader(hdr[:], &Message{From: 2, To: 1, Tag: TagParticles})
	le := binary.LittleEndian
	le.PutUint32(hdr[28:], math.MaxUint32) // billed
	le.PutUint32(hdr[32:], math.MaxUint32) // plen
	if _, _, err := DecodeNetFrame(hdr[:]); err == nil ||
		!strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("4 GiB length field: err = %v", err)
	}
	le.PutUint32(hdr[28:], MaxFramePayload)
	le.PutUint32(hdr[32:], MaxFramePayload)
	if _, _, err := DecodeNetFrame(hdr[:]); err == nil ||
		!strings.Contains(err.Error(), "truncated frame payload") {
		t.Errorf("cap-sized frame must pass the header check: err = %v", err)
	}
}

// FuzzDecodeNetFrame hammers the decoder with arbitrary bytes: it must
// never panic, and an accepted frame must re-encode to the exact bytes
// it was decoded from (the codec is bijective on valid frames).
func FuzzDecodeNetFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeWholeFrame(&Message{
		From: 2, To: 1, Tag: TagParticles,
		Payload: []byte("seed payload"), Ready: 2.25, Bytes: 120,
		Corr: MakeCorr(3, 2, 9),
	}))
	f.Add(encodeWholeFrame(&Message{From: 0, To: 5, Tag: TagFrameDone}))
	bad := encodeWholeFrame(&Message{From: 1, To: 0, Tag: TagGhosts, Payload: []byte("x"), Bytes: 1})
	bad[0] ^= 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeNetFrame(data)
		if err != nil {
			return
		}
		if n < frameHeaderSize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if m.Tag >= numTags {
			t.Fatalf("accepted unknown tag %d", m.Tag)
		}
		if len(m.Payload) > MaxFramePayload || m.Bytes < len(m.Payload) {
			t.Fatalf("accepted payload %d billed %d", len(m.Payload), m.Bytes)
		}
		reenc := encodeWholeFrame(&m)
		if !bytes.Equal(reenc, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reenc, data[:n])
		}
	})
}

// frameStream builds a byte stream of frames from spec, four bytes
// (a, b, c, d) per frame, at most 16 frames. a picks the tag (numTags,
// an unknown one, included) and the receiver; b and c the payload
// length, up to 32 KiB so that a payload can outgrow the read buffer;
// d the sender, a billed surplus and the frame's fate: d>>4 == 0 flips
// header byte b mod frameHeaderSize, d>>4 == 1 cuts the stream inside
// the frame, anything else leaves it whole.
func frameStream(spec []byte) []byte {
	var out []byte
	for i := 0; i+4 <= len(spec) && i < 4*16; i += 4 {
		a, b, c, d := spec[i], spec[i+1], spec[i+2], spec[i+3]
		payload := make([]byte, int(b)|int(c&0x7f)<<8)
		for k := range payload {
			payload[k] = byte(i + k)
		}
		frame := encodeWholeFrame(&Message{
			From: int(d & 7), To: int(a >> 5), Tag: Tag(a) % (numTags + 1),
			Payload: payload, Ready: float64(b), Bytes: len(payload) + int(d>>3&1),
			Corr: MakeCorr(i, int(d&7), int(c)),
		})
		switch d >> 4 {
		case 0:
			frame[int(b)%frameHeaderSize] ^= d | 1
		case 1:
			return append(out, frame[:int(c)%len(frame)]...)
		}
		out = append(out, frame...)
	}
	return out
}

// chunkReader hands out a stream in the chunk sizes cuts picks, in
// turn, and counts the reads of each frame so the fuzz target can check
// readFrame's wait hook: every read of a frame comes after the hook,
// and the hook runs only for a frame that needs a read.
type chunkReader struct {
	t     *testing.T
	data  []byte
	cuts  []byte
	next  int
	waits int // wait calls in the current frame
	reads int // Read calls in the current frame
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.waits == 0 {
		c.t.Fatal("read before the wait hook ran")
	}
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.cuts) > 0 {
		cut := c.cuts[c.next%len(c.cuts)]
		c.next++
		n = min(n, 1<<(cut&15)+int(cut>>4))
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	return n, nil
}

// FuzzNetFrameStream feeds the socket reader's decode loop a stream of
// valid and corrupt frames through reads of arbitrary sizes. It must
// produce exactly the messages repeated DecodeNetFrame produces on the
// whole stream, stop with an error at the same frame (io.EOF only when
// the stream ends cleanly between frames), and call its wait hook at
// most once per frame, before any read and only when it reads. Its seed
// corpus lives in testdata/fuzz/FuzzNetFrameStream.
func FuzzNetFrameStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec, cuts []byte) {
		stream := frameStream(spec)
		var want []Message
		clean := true
		for off := 0; off < len(stream); {
			m, n, err := DecodeNetFrame(stream[off:])
			if err != nil {
				clean = false
				break
			}
			want = append(want, m)
			off += n
		}

		cr := &chunkReader{t: t, data: stream, cuts: cuts}
		r := bufio.NewReaderSize(cr, netReadBuf)
		var hdr [frameHeaderSize]byte
		wait := func() { cr.waits++ }
		for i := 0; ; i++ {
			cr.waits, cr.reads = 0, 0
			m, err := readFrame(r, &hdr, wait)
			if cr.waits > 1 || (cr.waits == 1) != (cr.reads > 0) {
				t.Fatalf("frame %d: %d wait calls for %d reads", i, cr.waits, cr.reads)
			}
			if err != nil {
				if i != len(want) {
					t.Fatalf("frame %d: %v, but DecodeNetFrame decodes %d frames", i, err, len(want))
				}
				if (err == io.EOF) != clean {
					t.Fatalf("frame %d: error %v, stream ends cleanly: %v", i, err, clean)
				}
				return
			}
			if i >= len(want) {
				t.Fatalf("decoded frame %d, DecodeNetFrame stops after %d", i, len(want))
			}
			w := want[i]
			if m.From != w.From || m.To != w.To || m.Tag != w.Tag || m.Ready != w.Ready ||
				m.Bytes != w.Bytes || m.Corr != w.Corr || !bytes.Equal(m.Payload, w.Payload) {
				t.Fatalf("frame %d: decoded %+v, want %+v", i, m, w)
			}
			m.Release()
		}
	})
}
