package dist

import (
	"fmt"
	"slices"
)

// StabilizingAverage is the self-stabilising transformation of
// AverageProtocol claimed in Section 1.1: run via Network.RunStabilizing
// it keeps no trusted soft state, recomputing everything from its
// neighbours every round, and therefore recovers the exact fault-free
// outputs within Horizon() rounds of any transient state corruption. It
// also implements Protocol, so the same algorithm can run once under the
// full-information engines.
type StabilizingAverage struct {
	// Radius is the averaging radius R of Theorem 3.
	Radius int
}

// Name returns "stabilizing-average(R=...)".
func (p StabilizingAverage) Name() string {
	return fmt.Sprintf("stabilizing-average(R=%d)", p.Radius)
}

// Horizon returns the information horizon 2R+1, which is also the
// stabilisation time: the layered soft state is fully re-derived from
// the ROMs every Horizon() rounds.
func (p StabilizingAverage) Horizon() int { return 2*p.Radius + 1 }

// output is the Theorem-3 averaging output on whatever knowledge the
// node currently holds.
func (p StabilizingAverage) output(k *knowledge) (float64, error) {
	return AverageProtocol{Radius: p.Radius}.output(k)
}

// stabNode is the per-node state of the stabilising engine: layered
// record tables layers[d] = K_d, the node's current belief about the
// records within distance d, for d = 0..T. Each round the node discards
// all soft state and rebuilds K_d from its neighbours' K_{d−1} tables
// plus its own ROM, so level d is provably correct d rounds after the
// last fault — the standard layered self-stabilisation argument.
type stabNode struct {
	rom      *agentRecord
	horizon  int
	layers   []map[int]*agentRecord
	outbox   []map[int]*agentRecord // snapshot of layers[0..T-1] for neighbours
	msgs     int
	received int
}

// reset restores the cold-start state: every layer holds only the ROM.
func (nd *stabNode) reset() {
	nd.layers = make([]map[int]*agentRecord, nd.horizon+1)
	for d := range nd.layers {
		nd.layers[d] = map[int]*agentRecord{nd.rom.agent: nd.rom}
	}
}

// stage publishes layers K_0..K_{T-1}; recompute never mutates old layer
// maps, so aliasing the snapshot is safe.
func (nd *stabNode) stage() {
	nd.outbox = nd.layers[:nd.horizon]
}

// recompute rebuilds every layer from this round's messages. The node's
// state at round t is a pure function of its ROM and its neighbours'
// round-(t−1) tables — nothing of the node's own previous soft state
// survives, which is what flushes corruption. Conflicting records for
// the same agent (impossible fault-free) resolve to the lowest-numbered
// neighbour's copy, keeping the engine deterministic.
func (nd *stabNode) recompute(inbox [][]map[int]*agentRecord) {
	layers := make([]map[int]*agentRecord, nd.horizon+1)
	layers[0] = map[int]*agentRecord{nd.rom.agent: nd.rom}
	for d := 1; d <= nd.horizon; d++ {
		merged := map[int]*agentRecord{nd.rom.agent: nd.rom}
		for _, tables := range inbox { // ascending neighbour order
			for a, rec := range tables[d-1] {
				if _, ok := merged[a]; !ok {
					merged[a] = rec
				}
			}
		}
		layers[d] = merged
	}
	nd.layers = layers
}

// StabNodeHandle gives a fault injector access to one node's state
// during a RunStabilizing execution.
type StabNodeHandle struct {
	node *stabNode
}

// Agent returns the index of the node the handle controls.
func (h *StabNodeHandle) Agent() int { return h.node.rom.agent }

// Drop wipes the node's entire soft state, as if the node had just
// rebooted mid-run. The ROM — the node's own coefficients, supports and
// neighbour list — is hard-wired and survives.
func (h *StabNodeHandle) Drop() { h.node.reset() }

// StabilizingRun reports the outputs and stabilisation round of a
// RunStabilizing execution.
type StabilizingRun struct {
	// Outputs[t] is the full output vector after round t; Outputs[0] is
	// the cold-start output before any communication.
	Outputs [][]float64
	// StableFrom is the first round from which the outputs equal the
	// fault-free protocol's outputs for the remainder of the run, or -1
	// if the run ended still perturbed. Recovery within one horizon means
	// StableFrom ≤ faultRound + Horizon().
	StableFrom int
	// Reference is the fault-free output vector the run stabilises to,
	// bit-identical to the sequential engine's run of the same protocol.
	Reference []float64
	// Rounds and FaultRound echo the request.
	Rounds     int
	FaultRound int
	// Messages and Payload count the table exchanges of the whole run;
	// the stabilising mode pays a constant factor over one-shot flooding
	// every round, the price of perpetual fault tolerance.
	Messages int
	Payload  int
}

// RunStabilizing executes p in self-stabilising mode for the given
// number of rounds (Outputs gets one vector per round, including round
// 0). If inject is non-nil and 0 ≤ faultRound < rounds, it is called at
// round faultRound — after that round's exchange, so the corruption is
// visible in Outputs[faultRound] and is what neighbours receive next
// round — and may wipe the soft state of any subset of nodes through
// StabNodeHandle.Drop.
// Because layer K_0 is re-derived from the incorruptible ROM every
// round, layer K_d is correct again d rounds after the fault, hence
// StableFrom ≤ faultRound + p.Horizon().
func (nw *Network) RunStabilizing(p Protocol, rounds, faultRound int, inject func([]*StabNodeHandle)) (*StabilizingRun, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("dist: rounds must be ≥ 1, got %d", rounds)
	}
	// Computing the fault-free reference also validates the protocol.
	ref, err := nw.runSequential(p)
	if err != nil {
		return nil, err
	}

	n := len(nw.roms)
	nodes := make([]*stabNode, n)
	handles := make([]*StabNodeHandle, n)
	for v, rom := range nw.roms {
		nodes[v] = &stabNode{rom: rom, horizon: p.Horizon()}
		nodes[v].reset()
		handles[v] = &StabNodeHandle{node: nodes[v]}
	}

	run := &StabilizingRun{Rounds: rounds, FaultRound: faultRound, Reference: ref.X}
	record := func() error {
		xs := make([]float64, n)
		for v, nd := range nodes {
			x, err := p.output(&knowledge{self: v, recs: nd.layers[nd.horizon]})
			if err != nil {
				return fmt.Errorf("dist: %s: node %d: %w", p.Name(), v, err)
			}
			xs[v] = x
		}
		run.Outputs = append(run.Outputs, xs)
		return nil
	}

	if faultRound == 0 && inject != nil {
		inject(handles)
	}
	if err := record(); err != nil {
		return nil, err
	}
	for t := 1; t < rounds; t++ {
		for _, nd := range nodes {
			nd.stage()
		}
		for v, nd := range nodes {
			nbrs := nw.g.Neighbors(v)
			inbox := make([][]map[int]*agentRecord, 0, len(nbrs))
			for _, u := range nbrs {
				msg := nodes[u].outbox
				if len(msg) == 0 {
					continue // horizon-0 protocols have nothing to send
				}
				inbox = append(inbox, msg)
				nd.msgs++
				for _, tbl := range msg {
					nd.received += len(tbl)
				}
			}
			nd.recompute(inbox)
		}
		if t == faultRound && inject != nil {
			inject(handles)
		}
		if err := record(); err != nil {
			return nil, err
		}
	}

	// StableFrom: the longest suffix of rounds whose outputs equal the
	// fault-free reference exactly.
	run.StableFrom = len(run.Outputs)
	for run.StableFrom > 0 && slices.Equal(run.Outputs[run.StableFrom-1], ref.X) {
		run.StableFrom--
	}
	if run.StableFrom == len(run.Outputs) {
		run.StableFrom = -1
	}
	for _, nd := range nodes {
		run.Messages += nd.msgs
		run.Payload += nd.received
	}
	return run, nil
}
