package dist

import (
	"errors"
	"fmt"

	"maxminlp/internal/core"
	"maxminlp/internal/hypergraph"
	"maxminlp/internal/mmlp"
	"maxminlp/internal/obs"
)

// Network binds an instance to its communication hypergraph for
// distributed execution. It precomputes the per-agent ROMs once; the
// engines share them across runs (records are immutable).
type Network struct {
	in   *mmlp.Instance
	g    *hypergraph.Graph
	roms []*agentRecord

	// sess, when non-nil, lets the engines reuse the session's retained
	// ball indexes and shared solve cache for the per-node output
	// computations (see NewSessionNetwork). Outputs are bit-identical
	// with or without it.
	sess *core.Solver

	// obsM, when non-nil, receives run/round/message counters and barrier
	// wait latencies from every engine run (see SetObs).
	obsM *obs.DistMetrics
}

// SetObs attaches (or, with nil, detaches) engine metrics: runs per
// engine, rounds, delivered messages and payload records, per-round
// message counts (sequential engine) and barrier wait time (sharded
// engine). Metrics never change any output bit. Not safe
// to call concurrently with a run.
func (nw *Network) SetObs(m *obs.DistMetrics) { nw.obsM = m }

// recordRun folds one finished trace into the engine metrics.
func (nw *Network) recordRun(engine string, tr *Trace) {
	m := nw.obsM
	if m == nil {
		return
	}
	m.EngineRuns(engine).Inc()
	m.Rounds.Add(int64(tr.Rounds))
	m.Messages.Add(int64(tr.Messages))
	m.Records.Add(int64(tr.Payload))
}

// NewNetwork builds a Network over the instance and its communication
// hypergraph. The graph must have one vertex per agent.
func NewNetwork(in *mmlp.Instance, g *hypergraph.Graph) (*Network, error) {
	if in == nil || g == nil {
		return nil, errors.New("dist: nil instance or graph")
	}
	if g.NumVertices() != in.NumAgents() {
		return nil, fmt.Errorf("dist: graph has %d vertices but instance has %d agents",
			g.NumVertices(), in.NumAgents())
	}
	return &Network{in: in, g: g, roms: buildRecords(in, g)}, nil
}

// NewSessionNetwork builds a Network over a Solver session's instance
// and hypergraph, and threads the session through the engines: each
// node's Theorem-3 output reads the session's retained radius-R ball
// index instead of re-deriving balls from gathered records, and solves
// its local LPs through a ball solver backed by the session's shared
// (internally synchronised) cache — so the redundant re-solves of the
// protocol dedup across nodes, engines and prior session queries.
// Outputs and traces stay bit-identical to a plain NewNetwork run: ball
// contents are equal once flooding has delivered the horizon, and a
// cached LP solution is only reused after an exact canonical-key match.
//
// The network snapshots the session's instance at construction; weight
// or topology updates applied to the session afterwards are not
// reflected in the records until Resync re-snapshots them.
func NewSessionNetwork(sess *core.Solver) (*Network, error) {
	if sess == nil {
		return nil, errors.New("dist: nil session")
	}
	in, g := sess.Snapshot()
	nw, err := NewNetwork(in, g)
	if err != nil {
		return nil, err
	}
	nw.sess = sess
	return nw, nil
}

// Resync re-snapshots a session-backed network after updates were
// applied to the session — in particular topology updates, under which
// nodes appear and disappear between runs. The per-agent ROMs and the
// graph are rebuilt from the session's current instance, so the next run
// produces outputs and traces bit-identical to a cold network over the
// mutated instance (detached agents become isolated zero-activity
// nodes). Runs already in flight are unaffected: they keep the records
// and graph they started with. Resync must not be called concurrently
// with a run on the same Network.
func (nw *Network) Resync() error {
	if nw.sess == nil {
		return errors.New("dist: Resync requires a session-backed network (NewSessionNetwork)")
	}
	in, g := nw.sess.Snapshot()
	if g.NumVertices() != in.NumAgents() {
		return fmt.Errorf("dist: session graph has %d vertices but instance has %d agents",
			g.NumVertices(), in.NumAgents())
	}
	nw.in, nw.g, nw.roms = in, g, buildRecords(in, g)
	return nil
}

// NumAgents returns the number of nodes in the network.
func (nw *Network) NumAgents() int { return len(nw.roms) }

// Trace reports the output and communication cost of one protocol
// execution.
type Trace struct {
	// Protocol names the protocol that produced the trace.
	Protocol string
	// X is the combined output: X[v] is the activity node v announced.
	X []float64
	// Rounds is the number of synchronous communication rounds executed
	// (the protocol's horizon; the schedule is fixed because a node
	// cannot detect globally that flooding has finished).
	Rounds int
	// Messages counts point-to-point messages delivered; a node with
	// nothing new to forward in a round stays silent.
	Messages int
	// Payload counts the agent records delivered across all messages —
	// the simulator's unit of communication volume.
	Payload int
	// MaxNodePayload is the largest payload received by any single node,
	// the per-node communication cost the locality guarantee of §1.1
	// keeps constant as the network grows.
	MaxNodePayload int
}

// newFloodNodes validates the protocol and builds the per-node state for
// a full-information run.
func (nw *Network) newFloodNodes(p Protocol) ([]*floodNode, error) {
	if p == nil {
		return nil, errors.New("dist: nil protocol")
	}
	if p.Horizon() < 0 {
		return nil, fmt.Errorf("dist: protocol %s has negative horizon %d", p.Name(), p.Horizon())
	}
	nodes := make([]*floodNode, len(nw.roms))
	for v, rom := range nw.roms {
		nodes[v] = newFloodNode(rom)
		if nw.sess != nil {
			// One ball solver per node keeps the workspace and key
			// buffer single-goroutine under every engine; the cache
			// behind them is the session's and is safe to share. The
			// graph snapshot pins which topology the session's ball
			// indexes may serve this run.
			nodes[v].know.sess = nw.sess
			nodes[v].know.solver = nw.sess.NewBallSolver()
			nodes[v].know.graph = nw.g
		}
	}
	return nodes, nil
}

// finish aggregates per-node results into the trace, surfacing the
// lowest-numbered node error if any occurred.
func (nw *Network) finish(tr *Trace, nodes []*floodNode) (*Trace, error) {
	tr.X = make([]float64, len(nodes))
	for v, nd := range nodes {
		if nd.err != nil {
			return nil, fmt.Errorf("dist: %s: node %d: %w", tr.Protocol, v, nd.err)
		}
		tr.X[v] = nd.x
		tr.Messages += nd.msgs
		tr.Payload += nd.received
		if nd.received > tr.MaxNodePayload {
			tr.MaxNodePayload = nd.received
		}
	}
	return tr, nil
}
