package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pscluster/internal/bufpool"
	"pscluster/internal/cluster"
)

// netFabrics builds TCP loopback fabrics for the given ranks of an
// nRanks-process run, fully wired (every listener up, peer table set)
// and torn down with the test.
func netFabrics(t testing.TB, ranks []int, nRanks int) []*NetFabric {
	t.Helper()
	return netFabricsOpts(t, ranks, nRanks, NetOptions{})
}

// netFabricsOpts is netFabrics with explicit NetOptions.
func netFabricsOpts(t testing.TB, ranks []int, nRanks int, opts NetOptions) []*NetFabric {
	t.Helper()
	c := cluster.New(cluster.Myrinet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 4})
	p, err := c.Place(nRanks - 2)
	if err != nil {
		t.Fatal(err)
	}
	cost := DefaultCost(p, c.Net)
	fabs := make([]*NetFabric, len(ranks))
	addrs := make([]string, nRanks)
	for i, r := range ranks {
		f, err := ListenNet(r, nRanks, "127.0.0.1:0", cost, opts)
		if err != nil {
			t.Fatal(err)
		}
		fabs[i] = f
		addrs[r] = f.Addr()
	}
	for _, f := range fabs {
		if err := f.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, f := range fabs {
			f.Close()
		}
	})
	return fabs
}

func TestNetSendRecvBasic(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	a, b := fabs[0], fabs[1]
	a.Send(3, TagParticles, []byte("hello"))
	m := b.Recv(2, TagParticles)
	if string(m.Payload) != "hello" || m.From != 2 || m.Tag != TagParticles {
		t.Errorf("got %+v", m)
	}
	m.Release()
}

// The same message script over the virtual router and the TCP fabric
// must leave bit-identical virtual clocks, stats and correlation stamps
// — the property the whole multi-process design rests on.
func TestNetVirtualClockParity(t *testing.T) {
	script := func(a, b Fabric) ([]CorrID, []CorrID) {
		a.SetFrame(3)
		b.SetFrame(3)
		a.Clock().Advance(0.5)
		a.SendSized(b.Rank(), TagParticles, make([]byte, 1000), 32000)
		a.Send(b.Rank(), TagLBOrder, nil)
		m1 := b.Recv(a.Rank(), TagParticles)
		m2 := b.Recv(a.Rank(), TagLBOrder)
		b.Clock().Advance(0.25)
		b.SendScaled(a.Rank(), TagLoadReport, make([]byte, 64), 16)
		m3 := a.Recv(b.Rank(), TagLoadReport)
		return []CorrID{m1.Corr, m2.Corr, m3.Corr},
			[]CorrID{MakeCorr(3, a.Rank(), 0), MakeCorr(3, a.Rank(), 1), MakeCorr(3, b.Rank(), 0)}
	}

	_, va, vb := twoProcRouter(t)
	vCorr, vWant := script(va, vb)
	if !reflect.DeepEqual(vCorr, vWant) {
		t.Fatalf("virtual corr stamps %v, want %v", vCorr, vWant)
	}

	fabs := netFabrics(t, []int{2, 3}, 4)
	na, nb := fabs[0], fabs[1]
	nCorr, _ := script(na, nb)
	if !reflect.DeepEqual(nCorr, vCorr) {
		t.Errorf("net corr stamps %v, virtual %v", nCorr, vCorr)
	}
	if na.Clock().Now() != va.Clock().Now() || nb.Clock().Now() != vb.Clock().Now() {
		t.Errorf("clocks diverge: net (%v, %v) virtual (%v, %v)",
			na.Clock().Now(), nb.Clock().Now(), va.Clock().Now(), vb.Clock().Now())
	}
	if !reflect.DeepEqual(na.Stats(), va.Stats()) || !reflect.DeepEqual(nb.Stats(), vb.Stats()) {
		t.Errorf("stats diverge:\nnet a %+v\nvirt a %+v\nnet b %+v\nvirt b %+v",
			na.Stats(), va.Stats(), nb.Stats(), vb.Stats())
	}
}

// Socket receive paths must hand every receiver its own pool-backed
// payload copy: a broadcast encodes one buffer per destination (each
// send consumes its payload's ownership), and every receiver may
// Release unconditionally because its copy aliases nothing — not the
// sender's buffers, not a sibling receiver's. Run under -race this
// also asserts the reader goroutines never touch a delivered payload
// again.
func TestNetRecvPayloadsUniquelyOwned(t *testing.T) {
	fabs := netFabrics(t, []int{0, 2, 3}, 4)
	src := fabs[0]
	const text = "broadcast payload encoded once per receiver"
	for _, to := range []int{2, 3} {
		buf := bufpool.Get(len(text))
		copy(buf, text)
		src.Send(to, TagLBOrder, buf)
	}
	m2 := fabs[1].Recv(0, TagLBOrder)
	m3 := fabs[2].Recv(0, TagLBOrder)
	if string(m2.Payload) != text || string(m3.Payload) != text {
		t.Fatalf("payloads corrupted: %q / %q", m2.Payload, m3.Payload)
	}
	if &m2.Payload[0] == &m3.Payload[0] {
		t.Error("two receivers share one payload buffer")
	}
	// Each receiver uniquely owns its copy: both Release unconditionally.
	m2.Release()
	m3.Release()
}

// The send path must return the payload to the pool once the frame has
// drained: a send-side buffer is reclaimed by the fabric, not leaked to
// the GC. The peer is a bare listener that never reads, so no receive
// path competes for the reclaimed buffer; the next same-class Get must
// observe it. Retried because a GC between Send and Get can
// legitimately empty the pool, and the race detector makes sync.Pool
// drop a fraction of Puts on purpose.
func TestNetSendPathReclaimsBuffers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fabs := netFabrics(t, []int{2}, 4)
	src := fabs[0]
	addrs := []string{"", "", src.Addr(), ln.Addr().String()}
	if err := src.SetPeers(addrs); err != nil {
		t.Fatal(err)
	}
	const n = 1 << 12
	reclaimed := false
	for try := 0; try < 20 && !reclaimed; try++ {
		buf := bufpool.Get(n)
		first := &buf[0]
		src.Send(3, TagParticles, buf)
		got := bufpool.Get(n)
		reclaimed = &got[0] == first
		bufpool.Put(got)
	}
	if !reclaimed {
		t.Error("send path never returned the payload buffer to the pool")
	}
}

func TestNetTagDemuxAndQueueDepth(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	a, b := fabs[0], fabs[1]
	a.Send(3, TagParticles, []byte("p"))
	a.Send(3, TagLoadReport, []byte("l"))
	a.Send(3, TagParticles, []byte("q"))
	if m := b.Recv(2, TagLoadReport); string(m.Payload) != "l" {
		t.Errorf("load report = %q", m.Payload)
	}
	// The two particles messages are stashed or in flight; they must
	// come out in send order.
	if m := b.Recv(2, TagParticles); string(m.Payload) != "p" {
		t.Errorf("first particles = %q", m.Payload)
	}
	if m := b.Recv(2, TagParticles); string(m.Payload) != "q" {
		t.Errorf("second particles = %q", m.Payload)
	}
	if d := b.QueueDepth(); d != 0 {
		t.Errorf("queue depth after draining = %d", d)
	}
}

func TestNetAbortUnblocksRecv(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fabs[0].Recv(3, TagParticles)
	}()
	time.Sleep(10 * time.Millisecond) // let the Recv block
	fabs[0].Abort()
	p := <-done
	if err, ok := p.(error); !ok || !errors.Is(err, ErrAborted) {
		t.Errorf("blocked Recv panicked with %v, want ErrAborted", p)
	}
}

func TestNetSendAfterAbortPanics(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	fabs[0].Abort()
	defer func() {
		if p := recover(); p == nil {
			t.Error("send after abort did not panic")
		}
	}()
	fabs[0].Send(3, TagParticles, []byte("x"))
}

// Per-peer teardown: closing the send connection to one peer must be
// transparent — the next send dials a fresh connection.
func TestNetClosePeerRedials(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	a, b := fabs[0], fabs[1]
	a.Send(3, TagParticles, []byte("before"))
	if m := b.Recv(2, TagParticles); string(m.Payload) != "before" {
		t.Fatalf("first message = %q", m.Payload)
	}
	a.ClosePeer(3)
	a.Send(3, TagParticles, []byte("after"))
	if m := b.Recv(2, TagParticles); string(m.Payload) != "after" {
		t.Fatalf("post-teardown message = %q", m.Payload)
	}
}

// A peer writing garbage must fail the fabric with a descriptive error,
// not ErrAborted — the run operator needs to know the frame stream was
// corrupt.
func TestNetCorruptFrameFailsFabric(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	b := fabs[1]
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, frameHeaderSize)); err != nil {
		t.Fatal(err)
	}
	p := func() (p any) {
		defer func() { p = recover() }()
		b.Recv(2, TagParticles)
		return nil
	}()
	perr, ok := p.(error)
	if !ok {
		t.Fatalf("recv on corrupted fabric returned %v, want error panic", p)
	}
	if errors.Is(perr, ErrAborted) {
		t.Error("corruption reported as plain ErrAborted — error detail lost")
	}
	if !strings.Contains(perr.Error(), "magic") {
		t.Errorf("error %q does not describe the bad frame", perr)
	}
}

func TestNetMisaddressedFrameFailsFabric(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	b := fabs[1]
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := encodeWholeFrame(&Message{From: 2, To: 0, Tag: TagParticles}) // b is rank 3
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	p := func() (p any) {
		defer func() { p = recover() }()
		b.Recv(2, TagParticles)
		return nil
	}()
	perr, ok := p.(error)
	if !ok || !strings.Contains(perr.Error(), "addressed to rank 0") {
		t.Errorf("misaddressed frame: panic = %v", p)
	}
}

func TestNetSetPeersValidatesLength(t *testing.T) {
	fabs := netFabrics(t, []int{2}, 4)
	if err := fabs[0].SetPeers([]string{"127.0.0.1:1"}); err == nil {
		t.Error("short peer table accepted")
	}
}

func TestNetSendToSelfPanics(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	defer func() {
		if recover() == nil {
			t.Error("send-to-self did not panic")
		}
	}()
	fabs[0].Send(2, TagParticles, nil)
}

func TestNetCloseIsIdempotentAndQuiet(t *testing.T) {
	fabs := netFabrics(t, []int{2, 3}, 4)
	a, b := fabs[0], fabs[1]
	a.Send(3, TagParticles, []byte("x"))
	m := b.Recv(2, TagParticles)
	m.Release()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// b's reader saw a's connection drop after Close — a deliberate
	// teardown must not have recorded an error.
	b.mu.Lock()
	err := b.firstErr
	b.mu.Unlock()
	if err != nil {
		t.Errorf("peer recorded error after clean close: %v", err)
	}
}

// The reader-contract tests below inject raw bytes into rank 3 of a
// 4-rank fabric whose frames time out after testIOTimeout, posing as
// rank 2 on a connection of their own.
const testIOTimeout = 200 * time.Millisecond

// rawPeer returns a fabric listening as rank 3 and a raw connection
// into it, both torn down with the test.
func rawPeer(t *testing.T) (*NetFabric, net.Conn) {
	t.Helper()
	b := netFabricsOpts(t, []int{3}, 4, NetOptions{IOTimeout: testIOTimeout})[0]
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return b, conn
}

// rawFrame encodes one rank 2 → rank 3 frame.
func rawFrame(tag Tag, payload []byte) []byte {
	return encodeWholeFrame(&Message{From: 2, To: 3, Tag: tag, Payload: payload, Bytes: len(payload)})
}

func writeRaw(t *testing.T, conn net.Conn, b []byte) {
	t.Helper()
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// recvFailure runs a Recv that must fail within IOTimeout + 1 s and
// returns the error it panicked with. A fabric that has not failed by
// then is aborted, so the test fails instead of blocking forever.
func recvFailure(t *testing.T, f *NetFabric) error {
	t.Helper()
	watchdog := time.AfterFunc(testIOTimeout+time.Second, f.Abort)
	defer watchdog.Stop()
	p := func() (p any) {
		defer func() { p = recover() }()
		m := f.Recv(2, TagParticles)
		m.Release()
		return nil
	}()
	err, ok := p.(error)
	if !ok {
		t.Fatalf("Recv returned or panicked with %v, want an error panic", p)
	}
	if errors.Is(err, ErrAborted) {
		t.Fatalf("Recv ended with %v: the fabric did not fail on its own", err)
	}
	return err
}

// recvPayload receives the next rank-2 TagParticles message, checks its
// payload and releases it.
func recvPayload(t *testing.T, f *NetFabric, want []byte) {
	t.Helper()
	m := f.Recv(2, TagParticles)
	if !bytes.Equal(m.Payload, want) {
		t.Fatalf("payload %q, want %q", m.Payload, want)
	}
	m.Release()
}

// A frame that stops arriving part-way through its header or its
// payload fails the fabric with a deadline error within IOTimeout.
func TestNetStalledFrameFailsWithinIOTimeout(t *testing.T) {
	frame := rawFrame(TagParticles, bytes.Repeat([]byte("s"), 64))
	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"mid-header", frameHeaderSize / 2},
		{"mid-payload", frameHeaderSize + 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, conn := rawPeer(t)
			start := time.Now()
			writeRaw(t, conn, frame[:tc.cut])
			err := recvFailure(t, b)
			if took := time.Since(start); took > testIOTimeout+time.Second {
				t.Errorf("stall failed the fabric after %v, IOTimeout %v", took, testIOTimeout)
			}
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("stall error %v, want a deadline error", err)
			}
		})
	}
}

// Idle time between whole frames is unbounded: a gap of twice
// IOTimeout fails nothing.
func TestNetIdleGapBetweenFramesIsUnbounded(t *testing.T) {
	b, conn := rawPeer(t)
	writeRaw(t, conn, rawFrame(TagParticles, []byte("one")))
	recvPayload(t, b, []byte("one"))
	time.Sleep(2 * testIOTimeout)
	writeRaw(t, conn, rawFrame(TagParticles, []byte("two")))
	recvPayload(t, b, []byte("two"))
}

// A deadline belongs to one frame. Frame 1 arrives split, its rest
// together with the start of frame 2, and frame 2's rest comes
// 1.4 × IOTimeout after frame 1 began: a deadline carried over from
// frame 1 would fail frame 2.
func TestNetDeadlineNotInherited(t *testing.T) {
	b, conn := rawPeer(t)
	f1 := rawFrame(TagParticles, []byte("first frame"))
	f2 := rawFrame(TagParticles, []byte("second frame"))
	gap := testIOTimeout * 7 / 10
	writeRaw(t, conn, f1[:frameHeaderSize/2])
	time.Sleep(gap)
	writeRaw(t, conn, append(append([]byte(nil), f1[frameHeaderSize/2:]...), f2[:5]...))
	time.Sleep(gap)
	writeRaw(t, conn, f2[5:])
	recvPayload(t, b, []byte("first frame"))
	recvPayload(t, b, []byte("second frame"))
}

// However the stream is cut into writes — several frames in one, or
// one byte per write — the frames arrive whole and in order.
func TestNetFramesSurviveAnyWriteSplit(t *testing.T) {
	payloads := [][]byte{[]byte("a"), nil, []byte("ccc")}
	t.Run("three frames in one write", func(t *testing.T) {
		b, conn := rawPeer(t)
		var burst []byte
		for _, p := range payloads {
			burst = append(burst, rawFrame(TagParticles, p)...)
		}
		writeRaw(t, conn, burst)
		for _, p := range payloads {
			recvPayload(t, b, p)
		}
	})
	t.Run("one byte per write", func(t *testing.T) {
		b, conn := rawPeer(t)
		want := []byte("dribbled one byte at a time")
		for _, c := range rawFrame(TagParticles, want) {
			writeRaw(t, conn, []byte{c})
		}
		recvPayload(t, b, want)
	})
}

// A peer that closes inside a frame fails the fabric; one that closes
// between frames ends its connection quietly.
func TestNetEOFMidFrameFailsFabric(t *testing.T) {
	frame := rawFrame(TagParticles, bytes.Repeat([]byte("e"), 64))
	for _, cut := range []int{frameHeaderSize / 2, frameHeaderSize + 10} {
		b, conn := rawPeer(t)
		writeRaw(t, conn, frame[:cut])
		conn.Close()
		if err := recvFailure(t, b); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("EOF after %d bytes: error %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestNetEOFAtFrameBoundaryIsQuiet(t *testing.T) {
	b, conn := rawPeer(t)
	writeRaw(t, conn, rawFrame(TagParticles, []byte("last")))
	conn.Close()
	recvPayload(t, b, []byte("last"))
	// A quiet end shows only as the absence of a failure: give the
	// reader time to see the EOF, then check the fabric still works.
	time.Sleep(2 * testIOTimeout)
	conn2, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	writeRaw(t, conn2, rawFrame(TagParticles, []byte("after")))
	recvPayload(t, b, []byte("after"))
	b.mu.Lock()
	err = b.firstErr
	b.mu.Unlock()
	if err != nil {
		t.Errorf("EOF at a frame boundary recorded %v", err)
	}
}

// A delivered payload is a copy, never a view of the connection's read
// buffer: frame 0's bytes survive far more than one buffer's worth of
// later frames passing through it.
func TestNetPayloadDoesNotAliasReadBuffer(t *testing.T) {
	b, conn := rawPeer(t)
	first := bytes.Repeat([]byte{0xa5}, 100)
	stream := rawFrame(TagParticles, first)
	const later, size = 40, 1000 // 40 KB, past a 16 KiB read buffer
	for i := 0; i < later; i++ {
		stream = append(stream, rawFrame(TagParticles, bytes.Repeat([]byte{byte(i)}, size))...)
	}
	writeRaw(t, conn, stream)
	m0 := b.Recv(2, TagParticles)
	if !bytes.Equal(m0.Payload, first) {
		t.Fatalf("frame 0 payload %x", m0.Payload)
	}
	for i := 0; i < later; i++ {
		recvPayload(t, b, bytes.Repeat([]byte{byte(i)}, size))
	}
	if !bytes.Equal(m0.Payload, first) {
		t.Errorf("frame 0 payload changed after later frames were read")
	}
	m0.Release()
}
