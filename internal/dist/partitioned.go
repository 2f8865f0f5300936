package dist

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"maxminlp/internal/wire"
)

// Partition identifies one member's contiguous slice of the agent
// range. The split is the same arithmetic the sharded engine uses, so a
// partitioned run visits exactly the node sets a sharded worker would.
type Partition struct {
	Self, Members int
}

// Bounds returns the half-open agent range [lo, hi) owned by the
// member.
func (pt Partition) Bounds(n int) (lo, hi int) {
	return n * pt.Self / pt.Members, n * (pt.Self + 1) / pt.Members
}

// Owner returns the member owning agent v of n: the inverse of Bounds.
func (pt Partition) Owner(v, n int) int {
	return ((v+1)*pt.Members - 1) / n
}

func (pt Partition) validate() error {
	if pt.Members < 1 || pt.Self < 0 || pt.Self >= pt.Members {
		return fmt.Errorf("dist: invalid partition %d/%d", pt.Self, pt.Members)
	}
	return nil
}

// PartialTrace is one member's slice of a partitioned run: outputs for
// the owned agents and the communication cost they observed. Summed by
// MergeParts, the members' partials reproduce the single-process Trace
// bit for bit.
type PartialTrace struct {
	// Lo, Hi delimit the owned agent range; X[v-Lo] is agent v's output.
	Lo, Hi int
	X      []float64
	Rounds int
	// Messages and Payload count deliveries to owned nodes only — local
	// and remote alike, exactly as the single-process engines count them.
	Messages       int
	Payload        int
	MaxNodePayload int
}

// RunPartitioned executes the member's slice of the protocol, driving
// the same double-buffered round loop as the single-process engines but
// materialising foreign outboxes from the transport instead of shared
// memory. Each round the member stages its own nodes' outboxes, sends
// every peer the staged outboxes of boundary nodes the peer's slice
// neighbours (as agent-id lists — all members replicate the immutable
// record ROMs, so structure is all the wire carries), and delivers to
// its own nodes in ascending neighbour order from local outboxes and
// decoded remote ones. Delivery order, merge order and output
// arithmetic are untouched, so the merged run is bit-identical to the
// sequential engine for every partition count and any Transport.
//
// The transport must span exactly pt.Members members and deliver
// pt.Self's frames; every member must run the same protocol over an
// identical Network snapshot.
func (nw *Network) RunPartitioned(p Protocol, pt Partition, t Transport) (*PartialTrace, error) {
	if err := pt.validate(); err != nil {
		return nil, err
	}
	if t == nil || t.Self() != pt.Self || t.Members() != pt.Members {
		return nil, fmt.Errorf("dist: transport does not match partition %d/%d", pt.Self, pt.Members)
	}
	nodes, err := nw.newFloodNodes(p)
	if err != nil {
		return nil, err
	}
	n := len(nodes)
	lo, hi := pt.Bounds(n)

	// Static boundary send-sets: sendSet[q] lists the owned nodes with at
	// least one neighbour owned by peer q, in ascending order. The graph
	// is fixed for the run, so this is computed once.
	sendSet := make([][]int32, pt.Members)
	for v := lo; v < hi; v++ {
		for _, u := range nw.g.Neighbors(v) {
			q := pt.Owner(u, n)
			if q == pt.Self {
				continue
			}
			if k := len(sendSet[q]); k > 0 && sendSet[q][k-1] == int32(v) {
				continue // already added for an earlier neighbour
			}
			sendSet[q] = append(sendSet[q], int32(v))
		}
	}

	remote := make(map[int][]*agentRecord)
	out := make([][]byte, pt.Members)
	encs := make([]wire.RoundEncoder, pt.Members)
	var idBuf []int32
	for round := 0; round < p.Horizon(); round++ {
		for v := lo; v < hi; v++ {
			nodes[v].stageOutbox()
		}
		for q := range out {
			out[q] = nil
			if q == pt.Self || len(sendSet[q]) == 0 {
				continue
			}
			enc := &encs[q]
			enc.Reset()
			for _, v := range sendSet[q] {
				ob := nodes[v].outbox
				idBuf = idBuf[:0]
				for _, rec := range ob {
					idBuf = append(idBuf, int32(rec.agent))
				}
				enc.Add(int(v), idBuf)
			}
			out[q] = append([]byte(nil), enc.Bytes()...)
		}
		in, err := t.Exchange(out)
		if err != nil {
			return nil, fmt.Errorf("dist: %s: partition %d/%d round %d: %w",
				p.Name(), pt.Self, pt.Members, round, err)
		}
		clear(remote)
		for q, b := range in {
			if q == pt.Self || len(b) == 0 {
				continue
			}
			err := wire.DecodeRound(b, func(u int, ids []int32) error {
				if u < 0 || u >= n || pt.Owner(u, n) != q {
					return fmt.Errorf("node %d not owned by peer %d", u, q)
				}
				msg := make([]*agentRecord, len(ids))
				for i, id := range ids {
					if id < 0 || int(id) >= n {
						return fmt.Errorf("record id %d out of range", id)
					}
					msg[i] = nw.roms[id]
				}
				remote[u] = msg
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("dist: %s: partition %d/%d round %d from peer %d: %w",
					p.Name(), pt.Self, pt.Members, round, q, err)
			}
		}
		for v := lo; v < hi; v++ {
			nd := nodes[v]
			for _, u := range nw.g.Neighbors(v) {
				var msg []*agentRecord
				if u >= lo && u < hi {
					msg = nodes[u].outbox
				} else {
					msg = remote[u]
				}
				if len(msg) > 0 {
					nd.deliver(msg)
				}
			}
		}
	}

	part := &PartialTrace{Lo: lo, Hi: hi, Rounds: p.Horizon(), X: make([]float64, hi-lo)}
	for v := lo; v < hi; v++ {
		nd := nodes[v]
		nd.x, nd.err = p.output(nd.know)
		if nd.err != nil {
			return nil, fmt.Errorf("dist: %s: node %d: %w", p.Name(), v, nd.err)
		}
		part.X[v-lo] = nd.x
		part.Messages += nd.msgs
		part.Payload += nd.received
		if nd.received > part.MaxNodePayload {
			part.MaxNodePayload = nd.received
		}
	}
	return part, nil
}

// MergeParts assembles the members' partial traces of one partitioned
// run into the full Trace. The parts must tile the agent range exactly.
func MergeParts(protocol string, n int, parts []*PartialTrace) (*Trace, error) {
	sorted := make([]*PartialTrace, len(parts))
	for i, part := range parts {
		if part == nil {
			return nil, fmt.Errorf("dist: MergeParts: missing partial %d", i)
		}
		sorted[i] = part
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	tr := &Trace{Protocol: protocol, X: make([]float64, 0, n)}
	next := 0
	for _, part := range sorted {
		if part.Lo != next || part.Hi < part.Lo || len(part.X) != part.Hi-part.Lo {
			return nil, fmt.Errorf("dist: MergeParts: partial [%d,%d) with %d outputs does not continue at %d",
				part.Lo, part.Hi, len(part.X), next)
		}
		if part.Rounds != sorted[0].Rounds {
			return nil, fmt.Errorf("dist: MergeParts: partials ran %d and %d rounds", sorted[0].Rounds, part.Rounds)
		}
		next = part.Hi
		tr.Rounds = part.Rounds
		tr.X = append(tr.X, part.X...)
		tr.Messages += part.Messages
		tr.Payload += part.Payload
		if part.MaxNodePayload > tr.MaxNodePayload {
			tr.MaxNodePayload = part.MaxNodePayload
		}
	}
	if next != n {
		return nil, fmt.Errorf("dist: MergeParts: partials cover [0,%d), want [0,%d)", next, n)
	}
	return tr, nil
}

// runPartitionedLoopback is the in-process "partitioned" engine: the
// cluster round loop over an in-memory transport mesh, one goroutine
// per member. It exists so the exact code path the multi-process
// cluster runs is exercised by every conformance and golden-trace
// suite without sockets.
func (nw *Network) runPartitionedLoopback(p Protocol, members int) (*Trace, error) {
	n := nw.NumAgents()
	if members <= 0 {
		members = runtime.GOMAXPROCS(0)
	}
	if members > n {
		members = n
	}
	if members < 1 {
		members = 1
	}
	ts := NewLoopback(members)
	parts := make([]*PartialTrace, members)
	errs := make([]error, members)
	var wg sync.WaitGroup
	wg.Add(members)
	for w := 0; w < members; w++ {
		go func(w int) {
			defer wg.Done()
			parts[w], errs[w] = nw.RunPartitioned(p, Partition{Self: w, Members: members}, ts[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	tr, err := MergeParts(p.Name(), n, parts)
	if err != nil {
		return nil, err
	}
	nw.recordRun("partitioned", tr)
	return tr, nil
}
