package dist

// floodNode is the per-node state of the full-information engines: the
// gathered knowledge plus the flooding frontier — records first learned
// in the previous round, to be forwarded in the next one. Forwarding
// only the frontier delivers every record within the horizon exactly
// once per edge direction.
type floodNode struct {
	know     *knowledge
	frontier []*agentRecord
	outbox   []*agentRecord
	msgs     int // messages received
	received int // records received (payload)
	x        float64
	err      error
}

func newFloodNode(rom *agentRecord) *floodNode {
	return &floodNode{know: newKnowledge(rom), frontier: []*agentRecord{rom}}
}

// stageOutbox publishes the frontier for neighbours to read this round.
func (nd *floodNode) stageOutbox() {
	nd.outbox = nd.frontier
	nd.frontier = nil
}

// deliver merges one neighbour's staged message; unseen records join the
// next frontier. Every engine delivers neighbours in ascending order, so
// the merge — and with it the whole run — is deterministic.
func (nd *floodNode) deliver(msg []*agentRecord) {
	nd.msgs++
	nd.received += len(msg)
	for _, rec := range msg {
		if _, ok := nd.know.recs[rec.agent]; ok {
			continue
		}
		nd.know.recs[rec.agent] = rec
		nd.frontier = append(nd.frontier, rec)
	}
}

// runSequential executes the protocol round by round in a single
// goroutine, visiting nodes in ascending order: the deterministic
// reference engine every other engine is tested against.
func (nw *Network) runSequential(p Protocol) (*Trace, error) {
	nodes, err := nw.newFloodNodes(p)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Protocol: p.Name(), Rounds: p.Horizon()}
	for round := 0; round < p.Horizon(); round++ {
		for _, nd := range nodes {
			nd.stageOutbox()
		}
		roundMsgs := 0
		for v, nd := range nodes {
			for _, u := range nw.g.Neighbors(v) {
				if msg := nodes[u].outbox; len(msg) > 0 {
					nd.deliver(msg)
					roundMsgs++
				}
			}
		}
		if m := nw.obsM; m != nil {
			m.RoundMessages.Observe(float64(roundMsgs))
		}
	}
	for _, nd := range nodes {
		nd.x, nd.err = p.output(nd.know)
	}
	out, err := nw.finish(tr, nodes)
	if err != nil {
		return nil, err
	}
	nw.recordRun("sequential", out)
	return out, nil
}
