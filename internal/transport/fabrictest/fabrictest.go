// Package fabrictest is the black-box conformance suite every
// transport.Fabric implementation must pass. The engines rely on these
// behaviors — deterministic (from, tag) matching, FIFO per sender and
// tag, sender-rank-ordered gathers, CorrID stamping, billed-byte
// accounting, abort propagation — and the suite pins them down against
// the Fabric interface alone, so the virtual router and the TCP fabric
// (and any future implementation) are held to the same contract.
//
// Drivers construct fabrics through a Factory and call Run; see the
// transport package's conformance tests for the two in-tree drivers.
package fabrictest

import (
	"errors"
	"testing"
	"time"

	"pscluster/internal/transport"
)

// Factory builds connected fabrics for the given ranks of an
// nRanks-process run, ready to exchange messages, and registers their
// teardown with t. The returned slice is parallel to ranks.
type Factory func(t *testing.T, ranks []int, nRanks int) []transport.Fabric

// Run drives the whole conformance suite against fabrics built by
// newFabrics. Each subtest constructs its own fabrics, so a failing
// property never cascades.
func Run(t *testing.T, newFabrics Factory) {
	t.Run("SendRecvIntegrity", func(t *testing.T) { testSendRecvIntegrity(t, newFabrics) })
	t.Run("FIFOPerSenderTag", func(t *testing.T) { testFIFOPerSenderTag(t, newFabrics) })
	t.Run("TagDemux", func(t *testing.T) { testTagDemux(t, newFabrics) })
	t.Run("GatherOrdersBySender", func(t *testing.T) { testGatherOrdersBySender(t, newFabrics) })
	t.Run("CorrStamping", func(t *testing.T) { testCorrStamping(t, newFabrics) })
	t.Run("BilledBytes", func(t *testing.T) { testBilledBytes(t, newFabrics) })
	t.Run("UnderBillingPanics", func(t *testing.T) { testUnderBillingPanics(t, newFabrics) })
	t.Run("SelfSendPanics", func(t *testing.T) { testSelfSendPanics(t, newFabrics) })
	t.Run("ClockCharging", func(t *testing.T) { testClockCharging(t, newFabrics) })
	t.Run("StatsMirror", func(t *testing.T) { testStatsMirror(t, newFabrics) })
	t.Run("QueueDepthDrains", func(t *testing.T) { testQueueDepthDrains(t, newFabrics) })
	t.Run("AbortUnblocksRecv", func(t *testing.T) { testAbortUnblocksRecv(t, newFabrics) })
}

// pair builds the canonical two-calculator fixture: ranks 2 and 3 of a
// four-process run.
func pair(t *testing.T, f Factory) (transport.Fabric, transport.Fabric) {
	t.Helper()
	fabs := f(t, []int{2, 3}, 4)
	return fabs[0], fabs[1]
}

func testSendRecvIntegrity(t *testing.T, f Factory) {
	a, b := pair(t, f)
	payload := make([]byte, 257) // odd size, crosses any alignment assumption
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	// The send consumes ownership of payload (the net fabric reclaims it
	// into the pool), so the comparison runs against a private copy.
	want := append([]byte(nil), payload...)
	a.Send(b.Rank(), transport.TagParticles, payload)
	m := b.Recv(a.Rank(), transport.TagParticles)
	if m.From != a.Rank() || m.To != b.Rank() || m.Tag != transport.TagParticles {
		t.Errorf("envelope = %+v", m)
	}
	if len(m.Payload) != len(want) {
		t.Fatalf("payload length %d, want %d", len(m.Payload), len(want))
	}
	for i := range want {
		if m.Payload[i] != want[i] {
			t.Fatalf("payload corrupt at byte %d", i)
		}
	}
}

func testFIFOPerSenderTag(t *testing.T, f Factory) {
	a, b := pair(t, f)
	for i := 0; i < 50; i++ {
		a.Send(b.Rank(), transport.TagParticles, []byte{byte(i)})
	}
	for i := 0; i < 50; i++ {
		m := b.Recv(a.Rank(), transport.TagParticles)
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d carries %d — FIFO per (sender, tag) violated", i, m.Payload[0])
		}
	}
}

func testTagDemux(t *testing.T, f Factory) {
	a, b := pair(t, f)
	a.Send(b.Rank(), transport.TagParticles, []byte("p1"))
	a.Send(b.Rank(), transport.TagLoadReport, []byte("l"))
	a.Send(b.Rank(), transport.TagParticles, []byte("p2"))
	// Receiving a later tag first must stash, not drop, the earlier ones.
	if m := b.Recv(a.Rank(), transport.TagLoadReport); string(m.Payload) != "l" {
		t.Errorf("load report = %q", m.Payload)
	}
	if m := b.Recv(a.Rank(), transport.TagParticles); string(m.Payload) != "p1" {
		t.Errorf("first particles = %q", m.Payload)
	}
	if m := b.Recv(a.Rank(), transport.TagParticles); string(m.Payload) != "p2" {
		t.Errorf("second particles = %q", m.Payload)
	}
}

func testGatherOrdersBySender(t *testing.T, f Factory) {
	fabs := f(t, []int{0, 2, 3}, 4)
	root, c1, c2 := fabs[0], fabs[1], fabs[2]
	// Deliberately send in reverse rank order: the gather must still
	// return sender-rank order — that is what makes phase boundaries
	// bit-reproducible.
	c2.Send(0, transport.TagLoadReport, []byte{3})
	c1.Send(0, transport.TagLoadReport, []byte{2})
	msgs := root.RecvFromEach([]int{2, 3}, transport.TagLoadReport)
	if len(msgs) != 2 || msgs[0].From != 2 || msgs[1].From != 3 {
		t.Fatalf("gather order: %+v", msgs)
	}
	if msgs[0].Payload[0] != 2 || msgs[1].Payload[0] != 3 {
		t.Errorf("gather payloads: %v, %v", msgs[0].Payload, msgs[1].Payload)
	}
}

func testCorrStamping(t *testing.T, f Factory) {
	a, b := pair(t, f)
	a.SetFrame(5)
	a.Send(b.Rank(), transport.TagParticles, nil)
	a.Send(b.Rank(), transport.TagGhosts, nil)
	m0 := b.Recv(a.Rank(), transport.TagParticles)
	m1 := b.Recv(a.Rank(), transport.TagGhosts)
	for i, m := range []transport.Message{m0, m1} {
		c := m.Corr
		if c.Frame() != 5 || c.Rank() != a.Rank() || c.Seq() != i {
			t.Errorf("msg %d: corr = (frame %d, rank %d, seq %d), want (5, %d, %d)",
				i, c.Frame(), c.Rank(), c.Seq(), a.Rank(), i)
		}
	}
	a.SetFrame(6)
	a.Send(b.Rank(), transport.TagParticles, nil)
	m := b.Recv(a.Rank(), transport.TagParticles)
	if m.Corr.Frame() != 6 || m.Corr.Seq() != 0 {
		t.Errorf("after SetFrame: corr = (frame %d, seq %d), want (6, 0)",
			m.Corr.Frame(), m.Corr.Seq())
	}
}

func testBilledBytes(t *testing.T, f Factory) {
	a, b := pair(t, f)
	a.SendSized(b.Rank(), transport.TagParticles, make([]byte, 100), 3200)
	a.SendScaled(b.Rank(), transport.TagRenderBatch, make([]byte, 10), 4)
	m1 := b.Recv(a.Rank(), transport.TagParticles)
	m2 := b.Recv(a.Rank(), transport.TagRenderBatch)
	if m1.Bytes != 3200 || len(m1.Payload) != 100 {
		t.Errorf("sized message: billed %d payload %d", m1.Bytes, len(m1.Payload))
	}
	if m2.Bytes != 40 || len(m2.Payload) != 10 {
		t.Errorf("scaled message: billed %d payload %d", m2.Bytes, len(m2.Payload))
	}
	if got := a.Stats().BytesSent; got != 3240 {
		t.Errorf("sender billed bytes = %d, want 3240", got)
	}
	if got := b.Stats().BytesRecv; got != 3240 {
		t.Errorf("receiver billed bytes = %d, want 3240", got)
	}
}

func testUnderBillingPanics(t *testing.T, f Factory) {
	a, b := pair(t, f)
	defer func() {
		if recover() == nil {
			t.Error("billing below the payload size did not panic")
		}
	}()
	a.SendSized(b.Rank(), transport.TagParticles, make([]byte, 100), 50)
}

func testSelfSendPanics(t *testing.T, f Factory) {
	a, _ := pair(t, f)
	defer func() {
		if recover() == nil {
			t.Error("send-to-self did not panic")
		}
	}()
	a.Send(a.Rank(), transport.TagParticles, nil)
}

func testClockCharging(t *testing.T, f Factory) {
	a, b := pair(t, f)
	a.Clock().Advance(2)
	a.Send(b.Rank(), transport.TagParticles, make([]byte, 1<<20))
	if a.Clock().Now() <= 2 {
		t.Error("send did not charge the sender's packing cost")
	}
	m := b.Recv(a.Rank(), transport.TagParticles)
	if m.Ready <= 2 {
		t.Errorf("ready time %v does not include the sender's clock", m.Ready)
	}
	if got := b.Clock().Now(); got <= m.Ready {
		t.Errorf("receiver clock %v did not fuse past ready %v plus serialization", got, m.Ready)
	}
	// A receiver already past the ready time must not move backwards.
	a.Send(b.Rank(), transport.TagParticles, nil)
	b.Clock().Advance(1000)
	b.Recv(a.Rank(), transport.TagParticles)
	if got := b.Clock().Now(); got < 1000 {
		t.Errorf("receive lowered the clock to %v", got)
	}
}

// tagBytes is an Observer that totals billed bytes per tag, the way the
// observability layer's per-tag counters do.
type tagBytes map[string]int

func (o tagBytes) MsgSent(_ int, tag string, bytes int, _ transport.CorrID, _, _ float64) {
	o[tag] += bytes
}

func (o tagBytes) MsgRecv(_ int, tag string, bytes int, _ transport.CorrID, _, _, _ float64) {
	o[tag] += bytes
}

func testStatsMirror(t *testing.T, f Factory) {
	a, b := pair(t, f)
	sent, recv := tagBytes{}, tagBytes{}
	a.SetObserver(sent)
	b.SetObserver(recv)
	a.Send(b.Rank(), transport.TagParticles, make([]byte, 100))
	a.SendSized(b.Rank(), transport.TagRenderBatch, make([]byte, 50), 200)
	b.Recv(a.Rank(), transport.TagParticles)
	b.Recv(a.Rank(), transport.TagRenderBatch)
	as, bs := a.Stats(), b.Stats()
	if as.MsgsSent != 2 || bs.MsgsRecv != 2 {
		t.Errorf("message counts: sent %d, received %d", as.MsgsSent, bs.MsgsRecv)
	}
	if as.BytesSent != bs.BytesRecv || as.BytesSent != 300 {
		t.Errorf("billed bytes: sent %d, received %d, want 300", as.BytesSent, bs.BytesRecv)
	}
	if sent["render-batch"] != 200 || recv["render-batch"] != 200 || recv["particles"] != 100 {
		t.Errorf("per-tag billing: sent %v, received %v", sent, recv)
	}
}

func testQueueDepthDrains(t *testing.T, f Factory) {
	a, b := pair(t, f)
	a.Send(b.Rank(), transport.TagParticles, []byte("p"))
	a.Send(b.Rank(), transport.TagLoadReport, []byte("l"))
	// Consuming the later message forces the earlier one into the stash
	// (per-connection FIFO guarantees it has arrived), so depth is
	// deterministic even on the real network.
	b.Recv(a.Rank(), transport.TagLoadReport)
	if d := b.QueueDepth(); d != 1 {
		t.Errorf("queue depth with one stashed message = %d, want 1", d)
	}
	b.Recv(a.Rank(), transport.TagParticles)
	if d := b.QueueDepth(); d != 0 {
		t.Errorf("queue depth after draining = %d, want 0", d)
	}
}

func testAbortUnblocksRecv(t *testing.T, f Factory) {
	a, b := pair(t, f)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		b.Recv(a.Rank(), transport.TagParticles)
	}()
	time.Sleep(10 * time.Millisecond) // let the Recv block
	b.Abort()
	select {
	case p := <-done:
		if err, ok := p.(error); !ok || !errors.Is(err, transport.ErrAborted) {
			t.Errorf("blocked Recv panicked with %v, want ErrAborted", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort left the blocked Recv hanging")
	}
}
