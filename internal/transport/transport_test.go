package transport

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pscluster/internal/cluster"
)

func twoProcRouter(t *testing.T) (*Router, *Endpoint, *Endpoint) {
	t.Helper()
	c := cluster.New(cluster.Myrinet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 4})
	p, err := c.Place(2)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(p, c.Net)
	return r, r.Endpoint(2), r.Endpoint(3)
}

func TestSendRecvBasic(t *testing.T) {
	_, a, b := twoProcRouter(t)
	a.Send(3, TagParticles, []byte("hello"))
	m := b.Recv(2, TagParticles)
	if string(m.Payload) != "hello" || m.From != 2 || m.Tag != TagParticles {
		t.Errorf("got %+v", m)
	}
}

func TestRecvFusesClockAndPaysIngest(t *testing.T) {
	_, a, b := twoProcRouter(t)
	a.Clock().Advance(5)
	a.Send(3, TagParticles, make([]byte, 1000))
	m := b.Recv(2, TagParticles)
	// Receiver ends at ready time + serialization.
	want := m.Ready + 1000/cluster.Myrinet.Bandwidth
	if got := b.Clock().Now(); got != want {
		t.Errorf("clock %v, want %v", got, want)
	}
	// Ready must include send time and latency.
	if m.Ready < 5+cluster.Myrinet.Latency {
		t.Errorf("ready %v too early", m.Ready)
	}
}

func TestRecvDoesNotLowerClock(t *testing.T) {
	_, a, b := twoProcRouter(t)
	a.Send(3, TagParticles, nil)
	b.Clock().Advance(100)
	b.Recv(2, TagParticles)
	if b.Clock().Now() != 100 {
		t.Errorf("receive lowered clock to %v", b.Clock().Now())
	}
}

func TestReceiverSerializesConcurrentSenders(t *testing.T) {
	// Two senders each ship 1 MB at t=0 to one receiver: the receiver
	// must pay both serializations back to back, not in parallel.
	c := cluster.New(cluster.FastEthernet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 4})
	p, _ := c.Place(3)
	r := NewRouter(p, c.Net)
	recv, s1, s2 := r.Endpoint(2), r.Endpoint(3), r.Endpoint(4)
	const mb = 1 << 20
	s1.Send(2, TagRenderBatch, make([]byte, mb))
	s2.Send(2, TagRenderBatch, make([]byte, mb))
	recv.Recv(3, TagRenderBatch)
	recv.Recv(4, TagRenderBatch)
	minTotal := 2 * mb / cluster.FastEthernet.Bandwidth
	if got := recv.Clock().Now(); got < minTotal {
		t.Errorf("receiver clock %v < serialized minimum %v", got, minTotal)
	}
}

func TestSendSizedBillsInflatedBytes(t *testing.T) {
	_, a, b := twoProcRouter(t)
	a.SendSized(3, TagParticles, make([]byte, 100), 100*32)
	if a.Stats().BytesSent != 3200 {
		t.Errorf("billed %d bytes, want 3200", a.Stats().BytesSent)
	}
	m := b.Recv(2, TagParticles)
	if m.Bytes != 3200 || len(m.Payload) != 100 {
		t.Errorf("message billing = %d / payload %d", m.Bytes, len(m.Payload))
	}
	// Ingest must be charged at the billed size.
	want := m.Ready + 3200/cluster.Myrinet.Bandwidth
	if got := b.Clock().Now(); got != want {
		t.Errorf("clock %v, want %v", got, want)
	}
}

func TestSendSizedRejectsUnderBilling(t *testing.T) {
	_, a, _ := twoProcRouter(t)
	defer func() {
		if recover() == nil {
			t.Error("under-billing did not panic")
		}
	}()
	a.SendSized(3, TagParticles, make([]byte, 100), 50)
}

func TestSameNodeSkipsNetwork(t *testing.T) {
	c := cluster.New(cluster.FastEthernet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 1})
	p, _ := c.Place(2) // both calculators on one node
	r := NewRouter(p, c.Net)
	a, b := r.Endpoint(2), r.Endpoint(3)
	payload := make([]byte, 1<<20)
	a.Send(3, TagParticles, payload)
	b.Recv(2, TagParticles)
	// 1 MB over Fast-Ethernet would be ~0.1 s; on-node it must be far less.
	if got := b.Clock().Now(); got > 0.01 {
		t.Errorf("same-node delivery took %v, looks like it crossed the network", got)
	}
}

func TestTagDemux(t *testing.T) {
	_, a, b := twoProcRouter(t)
	a.Send(3, TagParticles, []byte("p"))
	a.Send(3, TagLoadReport, []byte("l"))
	a.Send(3, TagParticles, []byte("q"))
	// Receive out of order by tag.
	if m := b.Recv(2, TagLoadReport); string(m.Payload) != "l" {
		t.Errorf("load report = %q", m.Payload)
	}
	if m := b.Recv(2, TagParticles); string(m.Payload) != "p" {
		t.Errorf("first particles = %q", m.Payload)
	}
	if m := b.Recv(2, TagParticles); string(m.Payload) != "q" {
		t.Errorf("second particles = %q", m.Payload)
	}
	if b.PendingCount() != 0 {
		t.Errorf("pending = %d", b.PendingCount())
	}
}

func TestRecvFromEachOrdersBySender(t *testing.T) {
	c := cluster.New(cluster.Myrinet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 4})
	p, _ := c.Place(4)
	r := NewRouter(p, c.Net)
	recv := r.Endpoint(0)
	var wg sync.WaitGroup
	for i := 2; i <= 5; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			e := r.Endpoint(rank)
			e.Send(0, TagLoadReport, []byte{byte(rank)})
		}(i)
	}
	wg.Wait()
	msgs := recv.RecvFromEach([]int{2, 3, 4, 5}, TagLoadReport)
	for i, m := range msgs {
		if m.From != i+2 || m.Payload[0] != byte(i+2) {
			t.Errorf("msg %d from %d payload %v", i, m.From, m.Payload)
		}
	}
}

func TestStats(t *testing.T) {
	_, a, b := twoProcRouter(t)
	oa := &obsRecord{}
	a.SetObserver(oa)
	a.Send(3, TagParticles, make([]byte, 100))
	a.Send(3, TagRenderBatch, make([]byte, 50))
	if a.Stats().MsgsSent != 2 || a.Stats().BytesSent != 150 {
		t.Errorf("stats = %+v", a.Stats())
	}
	if got := oa.sentPerTag(); !reflect.DeepEqual(got, map[string]int{"particles": 100, "render-batch": 50}) {
		t.Errorf("observed bytes by tag = %v", got)
	}
	b.Recv(2, TagParticles)
	b.Recv(2, TagRenderBatch)
}

func TestRecvStats(t *testing.T) {
	_, a, b := twoProcRouter(t)
	oa, ob := &obsRecord{}, &obsRecord{}
	a.SetObserver(oa)
	b.SetObserver(ob)
	a.Send(3, TagParticles, make([]byte, 100))
	a.SendSized(3, TagRenderBatch, make([]byte, 50), 200)
	b.Recv(2, TagParticles)
	b.Recv(2, TagRenderBatch)
	// Receive-side totals must mirror the send side, in billed bytes.
	if b.Stats().MsgsRecv != a.Stats().MsgsSent {
		t.Errorf("msgs: sent %d, received %d", a.Stats().MsgsSent, b.Stats().MsgsRecv)
	}
	if b.Stats().BytesRecv != a.Stats().BytesSent || b.Stats().BytesRecv != 300 {
		t.Errorf("bytes: sent %d, received %d", a.Stats().BytesSent, b.Stats().BytesRecv)
	}
	// Per tag, through the observers: one message each way, billed alike.
	want := map[string]int{"particles": 100, "render-batch": 200}
	if got := ob.recvPerTag(); !reflect.DeepEqual(got, want) {
		t.Errorf("observed bytes received by tag = %v, want %v", got, want)
	}
	if got := oa.sentPerTag(); !reflect.DeepEqual(got, want) {
		t.Errorf("observed bytes sent by tag = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(oa.sent, []string{"particles", "render-batch"}) ||
		!reflect.DeepEqual(ob.recv, oa.sent) {
		t.Errorf("observed messages: sent %v, received %v", oa.sent, ob.recv)
	}
}

func TestRecvStatsCountConsumedOnly(t *testing.T) {
	_, a, b := twoProcRouter(t)
	a.Send(3, TagParticles, make([]byte, 10))
	a.Send(3, TagLoadReport, make([]byte, 20))
	b.Recv(2, TagLoadReport) // the particles message gets stashed, not consumed
	if b.Stats().MsgsRecv != 1 || b.Stats().BytesRecv != 20 {
		t.Errorf("stashed message counted as received: %+v", b.Stats())
	}
	b.Recv(2, TagParticles)
	if b.Stats().MsgsRecv != 2 || b.Stats().BytesRecv != 30 {
		t.Errorf("consumed message not counted: %+v", b.Stats())
	}
}

// obsRecord captures Observer callbacks for inspection.
type obsRecord struct {
	sent      []string
	recv      []string
	sentBytes []int
	recvBytes []int
	wait      []float64
	ser       []float64
	sentCorr  []CorrID
	recvCorr  []CorrID
}

func (o *obsRecord) MsgSent(to int, tag string, bytes int, corr CorrID, pack, now float64) {
	o.sent = append(o.sent, tag)
	o.sentBytes = append(o.sentBytes, bytes)
	o.sentCorr = append(o.sentCorr, corr)
	if pack < 0 || now <= 0 {
		panic("bad send observation")
	}
}

func (o *obsRecord) MsgRecv(from int, tag string, bytes int, corr CorrID, wait, ser, now float64) {
	o.recv = append(o.recv, tag)
	o.recvBytes = append(o.recvBytes, bytes)
	o.recvCorr = append(o.recvCorr, corr)
	o.wait = append(o.wait, wait)
	o.ser = append(o.ser, ser)
}

// sentPerTag and recvPerTag total the observed billed bytes per tag.
func (o *obsRecord) sentPerTag() map[string]int { return perTag(o.sent, o.sentBytes) }
func (o *obsRecord) recvPerTag() map[string]int { return perTag(o.recv, o.recvBytes) }

func perTag(tags []string, bytes []int) map[string]int {
	m := map[string]int{}
	for i, tag := range tags {
		m[tag] += bytes[i]
	}
	return m
}

func TestObserverCallbacks(t *testing.T) {
	_, a, b := twoProcRouter(t)
	oa, ob := &obsRecord{}, &obsRecord{}
	a.SetObserver(oa)
	b.SetObserver(ob)

	a.Clock().Advance(5)
	a.Send(3, TagParticles, make([]byte, 1000))
	m := b.Recv(2, TagParticles)

	if len(oa.sent) != 1 || oa.sent[0] != "particles" {
		t.Errorf("send observations = %v", oa.sent)
	}
	if len(ob.recv) != 1 || ob.recv[0] != "particles" {
		t.Fatalf("recv observations = %v", ob.recv)
	}
	// The receiver's clock started at 0, so the blocked wait is the full
	// ready time; serialization is bytes over the network bandwidth.
	if ob.wait[0] != m.Ready {
		t.Errorf("wait = %v, want ready time %v", ob.wait[0], m.Ready)
	}
	if want := 1000 / cluster.Myrinet.Bandwidth; ob.ser[0] != want {
		t.Errorf("ser = %v, want %v", ob.ser[0], want)
	}
}

// The correlation stamp must reach the receiver unchanged, carry the
// sender's (frame, rank, seq), and restart its sequence at SetFrame —
// that is what lets the observability layer stitch sender and receiver
// spans into one tree.
func TestCorrelationIDsStitchSendToRecv(t *testing.T) {
	_, a, b := twoProcRouter(t)
	oa, ob := &obsRecord{}, &obsRecord{}
	a.SetObserver(oa)
	b.SetObserver(ob)

	a.SetFrame(7)
	a.Send(3, TagParticles, make([]byte, 8))
	a.Send(3, TagLoadReport, make([]byte, 8))
	b.Recv(2, TagParticles)
	b.Recv(2, TagLoadReport)

	if len(oa.sentCorr) != 2 || len(ob.recvCorr) != 2 {
		t.Fatalf("corr counts: sent %d recv %d", len(oa.sentCorr), len(ob.recvCorr))
	}
	for i := range oa.sentCorr {
		c := oa.sentCorr[i]
		if c != ob.recvCorr[i] {
			t.Errorf("msg %d: sender stamped %v, receiver saw %v", i, c, ob.recvCorr[i])
		}
		if c.Frame() != 7 || c.Rank() != 2 || c.Seq() != i {
			t.Errorf("msg %d: corr = (frame %d, rank %d, seq %d), want (7, 2, %d)",
				i, c.Frame(), c.Rank(), c.Seq(), i)
		}
	}

	a.SetFrame(8)
	a.Send(3, TagParticles, nil)
	b.Recv(2, TagParticles)
	if c := ob.recvCorr[2]; c.Frame() != 8 || c.Seq() != 0 {
		t.Errorf("after SetFrame(8): corr = (frame %d, seq %d), want (8, 0)", c.Frame(), c.Seq())
	}
}

func TestQueueDepthCountsInboxAndStash(t *testing.T) {
	_, a, b := twoProcRouter(t)
	a.Send(3, TagParticles, nil)
	a.Send(3, TagParticles, nil)
	a.Send(3, TagLoadReport, nil)
	if d := b.QueueDepth(); d != 3 {
		t.Errorf("queue depth before receive = %d, want 3", d)
	}
	b.Recv(2, TagLoadReport) // stashes the two particles messages
	if d := b.QueueDepth(); d != 2 {
		t.Errorf("queue depth after one receive = %d, want 2", d)
	}
	b.Recv(2, TagParticles)
	b.Recv(2, TagParticles)
	if d := b.QueueDepth(); d != 0 {
		t.Errorf("queue depth after draining = %d, want 0", d)
	}
}

func TestObserverWaitZeroWhenMessageAlreadyArrived(t *testing.T) {
	_, a, b := twoProcRouter(t)
	ob := &obsRecord{}
	b.SetObserver(ob)
	a.Send(3, TagParticles, nil)
	b.Clock().Advance(100) // receiver is late: the message waited for it
	b.Recv(2, TagParticles)
	if ob.wait[0] != 0 {
		t.Errorf("late receiver observed wait %v, want 0", ob.wait[0])
	}
}

func TestSendToSelfPanics(t *testing.T) {
	_, a, _ := twoProcRouter(t)
	defer func() {
		if recover() == nil {
			t.Error("send-to-self did not panic")
		}
	}()
	a.Send(2, TagParticles, nil)
}

func TestConcurrentPingPongDeterministicClocks(t *testing.T) {
	// Run the same ping-pong twice; final virtual clocks must be equal
	// regardless of goroutine scheduling.
	run := func() (float64, float64) {
		_, a, b := twoProcRouter(t)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.Clock().Advance(0.001)
				a.Send(3, TagParticles, make([]byte, 64))
				a.Recv(3, TagParticles)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Recv(2, TagParticles)
				b.Clock().Advance(0.002)
				b.Send(2, TagParticles, make([]byte, 64))
			}
		}()
		wg.Wait()
		return a.Clock().Now(), b.Clock().Now()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Errorf("non-deterministic clocks: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
	if a1 <= 0.3 { // 100 × (0.001 + 0.002) plus transfers
		t.Errorf("clock %v too small", a1)
	}
}

func TestTagString(t *testing.T) {
	if TagParticles.String() != "particles" || TagLBOrder.String() != "lb-order" {
		t.Error("tag names wrong")
	}
	if Tag(200).String() == "" {
		t.Error("unknown tag should still format")
	}
}

// Every declared tag must have a real name — adding a tag without
// extending the names table would leak "tag(N)" into metric labels.
func TestTagStringNamesAllTags(t *testing.T) {
	seen := map[string]Tag{}
	for tag := Tag(0); tag < numTags; tag++ {
		name := tag.String()
		if name == "" || strings.HasPrefix(name, "tag(") {
			t.Errorf("tag %d has no name: %q", tag, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("tags %d and %d share the name %q", prev, tag, name)
		}
		seen[name] = tag
	}
	if numTags.String() != fmt.Sprintf("tag(%d)", int(numTags)) {
		t.Errorf("sentinel formats as %q — names table longer than the tag list", numTags.String())
	}
}
