package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pscluster/internal/bufpool"
)

// NetFabric is the real-network Fabric: ranks are OS processes and
// messages travel as length-prefixed TCP frames (frame.go). The frame
// header carries the CorrID stamp, the billed size and the sender's
// virtual ready time, and both ends charge the shared CostModel exactly
// as the in-process router does — so a multi-process run reproduces the
// virtual run's clocks, stats and frame checksums bit for bit while the
// bytes genuinely cross sockets.
//
// Topology: every rank listens on its configured address; connections
// are unidirectional and set up lazily, one per peer, on the first send
// to that peer (the receiver learns the sender from each frame header,
// so no hello exchange is needed). Reader goroutines decode inbound
// frames into pool-backed payload copies owned uniquely by this
// receiver — the virtual fabric's shared-broadcast double-Release
// hazard cannot occur on a socket receive path — and feed a single
// inbox; Recv keeps the same (from, tag) matching discipline as the
// virtual Endpoint, so consumption order is deterministic regardless of
// arrival interleaving.
//
// Each inbound connection is read through one buffered reader, so a
// burst of frames costs one read system call.
//
// Failure semantics: every frame write runs under a deadline, and so
// does every frame read that has to wait: once a frame has started and
// the reader needs more bytes than its buffer holds, it arms a deadline
// IOTimeout ahead, at most once per frame and never carried over from
// an earlier frame; a frame that arrived whole in the buffer costs no
// deadline call. At a frame boundary with the buffer empty the reader
// clears any armed deadline and blocks without one — idle waits between
// frames are unbounded, the normal state of a blocked phase; an EOF
// there is a quiet end, an EOF inside a frame is an error. A decode
// error, a stalled frame or a dead peer fails the fabric: the first
// error is recorded, Abort fires, and every blocked or future Send/Recv
// panics with that error (or ErrAborted when the teardown was
// deliberate), which the engine's process wrappers recover.
type NetFabric struct {
	endpointCore
	nRanks int
	opts   NetOptions

	ln    net.Listener
	addrs []string   // peer listen addresses, set by SetPeers
	peers []net.Conn // lazily dialed send connections, owner-goroutine only

	// hdr and wbufs are the send path's reusable header scratch and
	// writev vector; wvec is the slice header WriteTo consumes (it
	// advances its receiver, so it runs on this separate field and
	// wbufs keeps its backing array). With the payload drawn from
	// bufpool and returned there once the frame drains, a steady-state
	// send performs zero heap allocations.
	hdr   [frameHeaderSize]byte
	wbufs net.Buffers
	wvec  net.Buffers

	inbox chan Message
	abort chan struct{}

	mu        sync.Mutex
	allConns  []net.Conn // every opened conn (both directions), for teardown
	closing   bool
	firstErr  error
	abortOnce sync.Once
	closeOnce sync.Once
	acceptWG  sync.WaitGroup
	readerWG  sync.WaitGroup
}

// NetFabric implements Fabric.
var _ Fabric = (*NetFabric)(nil)

// NetOptions tunes the net fabric's OS-level behavior. The zero value
// selects the defaults; none of these affect the virtual-time model.
type NetOptions struct {
	// DialTimeout is the total budget for reaching one peer, retries
	// included — process start-up order is arbitrary, so early sends
	// retry until the peer's listener is up. Default 10s.
	DialTimeout time.Duration
	// IOTimeout bounds each frame's I/O: a frame must drain within it
	// once written, and arrive whole within it once its reader first
	// has to wait for more of its bytes. Default 30s.
	IOTimeout time.Duration
	// InboxDepth is the inbound message buffer, matching the virtual
	// router's inbox capacity by default.
	InboxDepth int
}

func (o NetOptions) withDefaults() NetOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	if o.InboxDepth <= 0 {
		o.InboxDepth = 1 << 14
	}
	return o
}

// ListenNet opens rank's side of an nRanks-process TCP fabric: it binds
// listenAddr (host:port; port 0 picks a free one — read it back with
// Addr) and starts accepting inbound peer connections immediately.
// Sends are possible once SetPeers installs the full address table.
func ListenNet(rank, nRanks int, listenAddr string, cost CostModel, opts NetOptions) (*NetFabric, error) {
	if rank < 0 || rank >= nRanks {
		return nil, fmt.Errorf("transport: rank %d outside fabric of %d ranks", rank, nRanks)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d listen %s: %w", rank, listenAddr, err)
	}
	opts = opts.withDefaults()
	f := &NetFabric{
		endpointCore: newEndpointCore(rank, cost),
		nRanks:       nRanks,
		opts:         opts,
		ln:           ln,
		peers:        make([]net.Conn, nRanks),
		inbox:        make(chan Message, opts.InboxDepth),
		abort:        make(chan struct{}),
	}
	f.acceptWG.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the listener's bound address (resolving a :0 port).
func (f *NetFabric) Addr() string { return f.ln.Addr().String() }

// SetPeers installs the rank → listen-address table. It must cover
// every rank; this rank's own entry is ignored (self-sends are illegal
// on every fabric).
func (f *NetFabric) SetPeers(addrs []string) error {
	if len(addrs) != f.nRanks {
		return fmt.Errorf("transport: peer table has %d entries, fabric has %d ranks",
			len(addrs), f.nRanks)
	}
	f.addrs = append([]string(nil), addrs...)
	return nil
}

// acceptLoop admits inbound peer connections until the listener closes
// and hands each to a frame-reader goroutine.
func (f *NetFabric) acceptLoop() {
	defer f.acceptWG.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed by Abort or Close
		}
		f.mu.Lock()
		if f.closing {
			f.mu.Unlock()
			c.Close()
			return
		}
		f.allConns = append(f.allConns, c)
		f.readerWG.Add(1)
		f.mu.Unlock()
		go f.readConn(c)
	}
}

// netReadBuf is each inbound connection's read buffer. At the fabric's
// message sizes a burst of frames then costs one read system call, and
// a frame rarely straddles a refill; 64 KiB saves almost no further
// reads and costs every connection four times the memory.
const netReadBuf = 16 << 10

// readConn decodes frames off one inbound connection into the inbox.
// Payloads are copied into pool-backed buffers owned uniquely by this
// receiver, so the existing Release discipline applies unconditionally
// on this path. A clean peer shutdown (EOF between frames) ends the
// loop quietly; anything else fails the fabric.
func (f *NetFabric) readConn(c net.Conn) {
	defer f.readerWG.Done()
	r := bufio.NewReaderSize(c, netReadBuf)
	var hdr [frameHeaderSize]byte
	// armed says a read deadline is set on c; readFrame calls arm
	// before a frame's first read that may wait.
	armed := false
	arm := func() {
		c.SetReadDeadline(time.Now().Add(f.opts.IOTimeout))
		armed = true
	}
	for {
		if r.Buffered() == 0 {
			// Idle waits between frames are unbounded: clear a deadline
			// an earlier frame armed and block for the next byte.
			// Abort and Close unblock this read by closing c.
			if armed {
				c.SetReadDeadline(time.Time{})
				armed = false
			}
			if _, err := r.Peek(1); err != nil {
				if err != io.EOF {
					f.fail(fmt.Errorf("transport: rank %d frame read: %w", f.rank, err))
				}
				return
			}
		}
		m, err := readFrame(r, &hdr, arm)
		if err != nil {
			f.fail(err)
			return
		}
		if m.To != f.rank {
			m.Release()
			f.fail(fmt.Errorf("transport: rank %d received frame addressed to rank %d",
				f.rank, m.To))
			return
		}
		if m.From < 0 || m.From >= f.nRanks || m.From == f.rank {
			m.Release()
			f.fail(fmt.Errorf("transport: rank %d received frame from invalid rank %d",
				f.rank, m.From))
			return
		}
		select {
		case f.inbox <- m:
		case <-f.abort:
			m.Release()
			return
		}
	}
}

// readFrame reads the next frame off r: the header into hdr (caller
// scratch, so nothing escapes per frame), then the payload into a
// pooled buffer the returned message owns. The payload is always a
// copy, never a view of r's buffer. wait is called at most once, before
// the first read that needs more bytes than r holds buffered, so the
// caller can bound the rest of the frame; a frame already whole in the
// buffer never calls it. The error is io.EOF only when r ends before
// the frame's first byte.
func readFrame(r *bufio.Reader, hdr *[frameHeaderSize]byte, wait func()) (Message, error) {
	waited := false
	if r.Buffered() < frameHeaderSize {
		wait()
		waited = true
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err != io.EOF {
			err = fmt.Errorf("transport: frame header: %w", err)
		}
		return Message{}, err
	}
	m, plen, err := decodeFrameHeader(hdr[:])
	if err != nil {
		return Message{}, err
	}
	if plen > 0 {
		if !waited && r.Buffered() < plen {
			wait()
		}
		payload := bufpool.Get(plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			bufpool.Put(payload)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Message{}, fmt.Errorf("transport: frame payload: %w", err)
		}
		m.Payload = payload
	}
	return m, nil
}

// fail records the fabric's first error and aborts, unless the fabric
// is already being torn down deliberately.
func (f *NetFabric) fail(err error) {
	f.mu.Lock()
	if f.closing {
		f.mu.Unlock()
		return
	}
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.mu.Unlock()
	f.Abort()
}

// errOrAborted returns the recorded failure, or ErrAborted for a
// deliberate teardown.
func (f *NetFabric) errOrAborted() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.firstErr != nil {
		return f.firstErr
	}
	return ErrAborted
}

// conn returns the send connection to peer, dialing it on first use.
// Dialing retries until the peer's listener is reachable or the dial
// budget runs out — fabric processes start in arbitrary order.
func (f *NetFabric) conn(to int) net.Conn {
	if c := f.peers[to]; c != nil {
		return c
	}
	if f.addrs == nil {
		panic(fmt.Errorf("transport: rank %d sending before SetPeers", f.rank))
	}
	deadline := time.Now().Add(f.opts.DialTimeout)
	for {
		select {
		case <-f.abort:
			panic(f.errOrAborted())
		default:
		}
		c, err := net.DialTimeout("tcp", f.addrs[to], time.Until(deadline))
		if err == nil {
			f.mu.Lock()
			if f.closing {
				f.mu.Unlock()
				c.Close()
				panic(f.errOrAborted())
			}
			f.allConns = append(f.allConns, c)
			f.mu.Unlock()
			f.peers[to] = c
			return c
		}
		if time.Now().After(deadline) {
			panic(fmt.Errorf("transport: rank %d dial rank %d (%s): %w",
				f.rank, to, f.addrs[to], err))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ClosePeer tears down the send connection to one peer; the next send
// to that peer dials a fresh one. Owner-goroutine only.
func (f *NetFabric) ClosePeer(to int) {
	if c := f.peers[to]; c != nil {
		c.Close()
		f.peers[to] = nil
	}
}

// Send transmits payload to process to, billed at its physical size.
func (f *NetFabric) Send(to int, tag Tag, payload []byte) {
	f.SendSized(to, tag, payload, len(payload))
}

// SendScaled transmits payload billed at Billed(len(payload), ratio).
func (f *NetFabric) SendScaled(to int, tag Tag, payload []byte, ratio float64) {
	f.SendSized(to, tag, payload, Billed(len(payload), ratio))
}

// SendSized charges the sender-side cost model (identically to the
// virtual fabric) and writes one frame to the peer. The payload is
// written zero-copy from the encoder's buffer via a writev vector, and
// the send consumes ownership of it: once the frame has drained, the
// buffer goes back to the pool, so the caller must not touch the
// payload after SendSized returns (the contract bufownership checks).
// The receiver decodes into its own pooled copy on the far side, so
// the reclaimed buffer is never shared.
func (f *NetFabric) SendSized(to int, tag Tag, payload []byte, bytes int) {
	corr, ready := f.chargeSend(to, tag, len(payload), bytes)
	m := Message{
		From: f.rank, To: to, Tag: tag, Payload: payload,
		Ready: ready, Bytes: bytes, Corr: corr,
	}
	c := f.conn(to)
	encodeFrameHeader(f.hdr[:], &m)
	f.wbufs = append(f.wbufs[:0], f.hdr[:])
	if len(payload) > 0 {
		f.wbufs = append(f.wbufs, payload)
	}
	c.SetWriteDeadline(time.Now().Add(f.opts.IOTimeout))
	f.wvec = f.wbufs
	_, err := f.wvec.WriteTo(c)
	// Drop the scratch references so neither vector aliases the buffer
	// the pool is about to own again.
	f.wvec = nil
	for i := range f.wbufs {
		f.wbufs[i] = nil
	}
	f.wbufs = f.wbufs[:0]
	bufpool.Put(payload)
	if err != nil {
		select {
		case <-f.abort:
			panic(f.errOrAborted())
		default:
		}
		panic(fmt.Errorf("transport: rank %d send to rank %d: %w", f.rank, to, err))
	}
}

// Recv blocks until a message with the given tag from the given sender
// is available, fuses the clock with its carried ready time, pays the
// ingest serialization cost, and returns it — the same matching and
// charging discipline as the virtual fabric.
func (f *NetFabric) Recv(from int, tag Tag) Message {
	key := pendKey{from, tag}
	for {
		if m, ok := f.takePending(key); ok {
			f.ingest(m)
			return m
		}
		select {
		case m := <-f.inbox:
			f.stash(m)
		case <-f.abort:
			panic(f.errOrAborted())
		}
	}
}

// RecvFromEach receives exactly one message with the given tag from
// every rank in froms, ordered as froms is.
func (f *NetFabric) RecvFromEach(froms []int, tag Tag) []Message {
	out := make([]Message, len(froms))
	for i, fr := range froms {
		out[i] = f.Recv(fr, tag)
	}
	return out
}

// QueueDepth returns stashed-but-unmatched messages plus the inbox
// backlog. Owner-goroutine only (the pending map is unsynchronized).
func (f *NetFabric) QueueDepth() int {
	return f.PendingCount() + len(f.inbox)
}

// Abort tears the fabric down hard: the listener and every connection
// close, blocked reads and writes unblock, and every blocked or future
// Send/Recv panics (with the first recorded error, or ErrAborted).
// Idempotent and safe from any goroutine.
func (f *NetFabric) Abort() {
	f.abortOnce.Do(func() {
		close(f.abort)
		f.ln.Close()
		f.mu.Lock()
		conns := append([]net.Conn(nil), f.allConns...)
		f.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
}

// Close shuts the fabric down deliberately at the end of a run: it
// marks the teardown as intentional (late reader errors are expected
// and suppressed), closes the listener and every connection, waits for
// the reader goroutines, and drains any unconsumed inbox payloads back
// to the pool. Idempotent.
func (f *NetFabric) Close() error {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		f.closing = true
		f.mu.Unlock()
		f.Abort()
		f.acceptWG.Wait()
		f.readerWG.Wait()
		for {
			select {
			case m := <-f.inbox:
				m.Release()
			default:
				return
			}
		}
	})
	return nil
}
