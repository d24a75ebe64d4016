// The worker half of the shared-substrate wire protocol (see
// internal/bdd/wire.go for the codec): boundary-crossing packets are
// coalesced per destination worker and shipped as one DeliverBatch
// message — a single topologically-ordered node table plus per-packet
// roots — with a per-peer bdd.WireSession so nodes the peer already
// materialized this phase are referenced by remote id instead of being
// re-encoded.

package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"s2/internal/bdd"
	"s2/internal/sidecar"
)

// wireItem is one boundary-crossing packet awaiting shipment: delivery
// coordinates plus the live engine ref (serialization is deferred to ship
// time so a whole chunk can share one substrate).
type wireItem struct {
	source, node, inPort string
	out                  bdd.Ref
}

// injection is one packet the controller injected at a local source node,
// queued until the next drain. Injections belong to round 0, so unlike
// batch deliveries no drain holds them back for a later round.
type injection struct {
	source, node string
	packet       []byte
}

// wireDelivery is one accepted DeliverBatch message parked until the next
// inbox drain: the engine must not be touched from peer RPC goroutines
// (the receiver's own round may be mid-GC), so materialization waits for
// the worker's phase goroutine, in arrival order.
type wireDelivery struct {
	from  int
	wire  []byte
	items []sidecar.WirePacket
	round int
}

// DeliverBatch implements sidecar.WorkerAPI: accept a shared-substrate
// packet batch from a peer. Only the inbox side is touched — Accept is
// header-only bookkeeping — and the substrate is materialized at the next
// drain (the engine must not be touched from peer RPC goroutines). A Reset
// reply tells the sender this worker no longer holds the session state
// the message splices onto.
func (w *Worker) DeliverBatch(req sidecar.DeliverBatchRequest) (sidecar.DeliverBatchReply, error) {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	if w.engine == nil || w.recvTables == nil {
		return sidecar.DeliverBatchReply{}, fmt.Errorf("core: worker %d: no active query for batch delivery", w.id)
	}
	t := w.recvTables[req.From]
	if t == nil {
		t = bdd.NewWireTable()
		w.recvTables[req.From] = t
	}
	ok, err := t.Accept(req.Wire, w.engine.NumVars())
	if err != nil {
		return sidecar.DeliverBatchReply{}, fmt.Errorf("core: worker %d: batch from %d: %w", w.id, req.From, err)
	}
	if !ok {
		return sidecar.DeliverBatchReply{Reset: true}, nil
	}
	w.wireInbox = append(w.wireInbox, wireDelivery{from: req.From, wire: req.Wire, items: req.Items, round: req.Round})
	w.statsPackets += int64(len(req.Items))
	return sidecar.DeliverBatchReply{}, nil
}

// drainInbox moves injections and queued deliveries stamped for rounds <=
// upTo into cur, Or-merging per slot: injected packets deserialize
// individually; wire substrates materialize in arrival order — each
// message bulk-inserts its node table into the engine in one pass under a
// single stripe-ordered lock acquisition — and resolve packet roots
// against the sender's table.
// Deliveries stamped for later rounds stay parked so that a packet crosses
// exactly one adjacency per wavefront round no matter how peer DPRounds
// interleave; the phase barrier guarantees every round-r shipment has
// arrived before any round-r drain begins, and rounds arrive monotonically
// per sender, so the kept prefix preserves per-sender wire session order.
func (w *Worker) drainInbox(cur map[packetSlot]bdd.Ref, upTo int) error {
	w.qmu.Lock()
	inbox := w.inbox
	w.inbox = nil
	var wireIn, wireParked []wireDelivery
	for _, wd := range w.wireInbox {
		if wd.round > upTo {
			wireParked = append(wireParked, wd)
		} else {
			wireIn = append(wireIn, wd)
		}
	}
	w.wireInbox = wireParked
	// Snapshot the table pointers for the senders being drained: peers keep
	// delivering (and inserting sessions for new senders) under qmu while
	// this drain runs, so the shared map must not leave the lock. The tables
	// themselves are safe to use outside it — accept-side and
	// materialize-side state are disjoint by design (see bdd.WireTable).
	tables := make(map[int]*bdd.WireTable, len(wireIn))
	for _, wd := range wireIn {
		tables[wd.from] = w.recvTables[wd.from]
	}
	w.qmu.Unlock()

	merge := func(slot packetSlot, pkt bdd.Ref) error {
		if prev, ok := cur[slot]; ok {
			merged, err := w.engine.Or(prev, pkt)
			if err != nil {
				return err
			}
			cur[slot] = merged
			return nil
		}
		cur[slot] = pkt
		return nil
	}
	for _, in := range inbox {
		pkt, err := w.engine.Deserialize(in.packet)
		if err != nil {
			return fmt.Errorf("core: worker %d deserializing packet for %s: %w", w.id, in.node, err)
		}
		if err := merge(packetSlot{source: in.source, node: in.node}, pkt); err != nil {
			return err
		}
	}
	for _, wd := range wireIn {
		t := tables[wd.from]
		if t == nil {
			return fmt.Errorf("core: worker %d: wire delivery from %d without a session", w.id, wd.from)
		}
		if err := t.Materialize(w.engine, wd.wire); err != nil {
			return fmt.Errorf("core: worker %d materializing batch from %d: %w", w.id, wd.from, err)
		}
		for _, it := range wd.items {
			pkt, err := t.Resolve(it.Root)
			if err != nil {
				return fmt.Errorf("core: worker %d resolving packet for %s: %w", w.id, it.Node, err)
			}
			if err := merge(packetSlot{source: it.Source, node: it.Node, inPort: it.InPort}, pkt); err != nil {
				return err
			}
		}
	}
	return nil
}

// wireBytesOf models the payload cost of one batch message: the substrate
// plus each packet's varint root reference. Delivery coordinates are
// excluded.
func wireBytesOf(wire []byte, roots []uint32) int {
	n := len(wire)
	var scratch [binary.MaxVarintLen64]byte
	for _, r := range roots {
		n += binary.PutUvarint(scratch[:], uint64(r))
	}
	return n
}

// deliverWire ships items to peer as one DeliverBatch message. A Reset
// reply runs the handshake once: reset the session and re-send
// self-contained.
func (w *Worker) deliverWire(peer sidecar.WorkerAPI, owner int, items []wireItem, next int) error {
	sess := w.sendSessions[owner]
	if sess == nil {
		sess = bdd.NewWireSession()
		w.sendSessions[owner] = sess
	}
	refs := make([]bdd.Ref, len(items))
	for i, it := range items {
		refs[i] = it.out
	}
	req := sidecar.DeliverBatchRequest{From: w.id, Items: make([]sidecar.WirePacket, len(items)), Round: next}
	for attempt := 0; attempt < 2; attempt++ {
		wire, roots, _, deduped := w.engine.EncodeDelta(sess, refs)
		req.Wire = wire
		for i, it := range items {
			req.Items[i] = sidecar.WirePacket{Source: it.source, Node: it.node, InPort: it.inPort, Root: roots[i]}
		}
		reply, err := peer.DeliverBatch(req)
		if err != nil {
			// The peer did not materialize this message, so the session's
			// optimistic bookkeeping is wrong: start clean.
			sess.Reset()
			w.flight.Record("wire", "session to peer %d reset after delivery error: %v", owner, err)
			return fmt.Errorf("core: worker %d delivering batch to %d: %w", w.id, owner, err)
		}
		if !reply.Reset {
			w.obsWireBytes(wireBytesOf(wire, roots))
			w.obsWireDeduped(deduped)
			return nil
		}
		// The peer lost the session (restart, recovery, new phase): bump
		// the epoch and re-send everything from scratch. A fresh message
		// is always acceptable, so a second Reset means a broken peer.
		sess.Reset()
		w.flight.Record("wire", "peer %d requested a fresh session, resending", owner)
	}
	return fmt.Errorf("core: worker %d: peer %d refused a fresh wire session", w.id, owner)
}

// shipRemote delivers the round's (or chunk's) boundary crossings in
// deterministic owner order, one message per destination worker. next is
// the wavefront round the crossings belong to at the receiver (the
// shipping round plus one).
func (w *Worker) shipRemote(remote map[int][]wireItem, next int) error {
	owners := make([]int, 0, len(remote))
	for o := range remote {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, o := range owners {
		items := remote[o]
		if len(items) == 0 {
			continue
		}
		peer := w.peers[o]
		if peer == nil {
			return fmt.Errorf("core: worker %d has no peer %d", w.id, o)
		}
		if err := w.deliverWire(peer, o, items, next); err != nil {
			return err
		}
	}
	return nil
}
