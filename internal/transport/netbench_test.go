package transport

import (
	"testing"

	"pscluster/internal/bufpool"
)

// The net-transport suite measures the same send/recv exchange over both fabrics — the virtual
// goroutine/channel router and the TCP loopback net fabric — plus the
// steady-state allocation cost of the frame codec over pooled buffers.
// The benchmark names share the NetTransport prefix so one -bench
// regex collects the whole file.

var benchSizes = []struct {
	name string
	n    int
}{
	{"64B", 64},
	{"1KiB", 1 << 10},
	{"64KiB", 1 << 16},
}

// benchNetPair returns two connected loopback net fabrics (ranks 2 and
// 3 of a 4-rank layout, matching benchRouter's endpoints).
func benchNetPair(b *testing.B) (*NetFabric, *NetFabric) {
	b.Helper()
	r := benchRouter(b, 2) // reuse its placement/cost wiring
	cost := r.Cost
	fabs := make([]*NetFabric, 2)
	addrs := make([]string, 4)
	for i, rank := range []int{2, 3} {
		f, err := ListenNet(rank, 4, "127.0.0.1:0", cost, NetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fabs[i], addrs[rank] = f, f.Addr()
	}
	for _, f := range fabs {
		if err := f.SetPeers(addrs); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		for _, f := range fabs {
			f.Close()
		}
	})
	return fabs[0], fabs[1]
}

// BenchmarkNetTransportVirtual is the in-process baseline: one message
// through the goroutine/channel router per op.
func BenchmarkNetTransportVirtual(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			r := benchRouter(b, 2)
			a, c := r.Endpoint(2), r.Endpoint(3)
			b.SetBytes(int64(sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Send(3, TagParticles, bufpool.Get(sz.n))
				m := c.Recv(2, TagParticles)
				m.Release()
			}
		})
	}
}

// BenchmarkNetTransportTCP is the same exchange over a real loopback
// socket: frame encode, writev, kernel round trip, frame decode and the
// pooled receive-side copy. The sender draws each payload from bufpool
// and the send path reclaims it once the frame drains; the receiver's
// copy is pool-backed and uniquely owned, so Release recycles it too —
// the steady state allocates nothing, which is what allocs/op verifies.
func BenchmarkNetTransportTCP(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			a, c := benchNetPair(b)
			b.SetBytes(int64(sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Send(3, TagParticles, bufpool.Get(sz.n))
				m := c.Recv(2, TagParticles)
				m.Release()
			}
		})
	}
}

// BenchmarkNetTransportPooledEncode isolates the wire codec: header
// encode into a reused scratch buffer plus full-frame decode, over a
// pooled payload. The decode aliases the input, so the whole round
// trip must be allocation-free.
func BenchmarkNetTransportPooledEncode(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			payload := bufpool.Get(sz.n)
			defer bufpool.Put(payload)
			m := Message{
				From: 2, To: 3, Tag: TagParticles,
				Bytes: len(payload), Ready: 1.5,
				Corr: MakeCorr(7, 2, 9), Payload: payload,
			}
			frame := make([]byte, frameHeaderSize+len(payload))
			b.SetBytes(int64(sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encodeFrameHeader(frame, &m)
				copy(frame[frameHeaderSize:], payload)
				if _, _, err := DecodeNetFrame(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
