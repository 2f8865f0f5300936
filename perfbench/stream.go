package main

import (
	"fmt"
	"math"
	"math/rand"

	"maxminlp/internal/core"
	"maxminlp/internal/httpapi"
	"maxminlp/internal/mmlp"
)

// op is one mutation of a seeded stream, in every form the benchmark
// needs it: the HTTP request the daemon receives, and the in-process
// form the replay feeds to the session and the model instance.
type op struct {
	weights *httpapi.WeightsRequest
	topo    []mmlp.TopoUpdate
}

// deltas is the weight patch as Solver.UpdateWeights takes it.
func (o *op) deltas() []core.WeightDelta {
	ds := make([]core.WeightDelta, 0, len(o.weights.Resources)+len(o.weights.Parties))
	for _, p := range o.weights.Resources {
		ds = append(ds, core.WeightDelta{Kind: core.ResourceWeight, Row: p.Row, Agent: p.Agent, Coeff: p.Coeff})
	}
	for _, p := range o.weights.Parties {
		ds = append(ds, core.WeightDelta{Kind: core.PartyWeight, Row: p.Row, Agent: p.Agent, Coeff: p.Coeff})
	}
	return ds
}

// topoRequest is the structural patch as the daemon's JSON surface
// takes it.
func (o *op) topoRequest() *httpapi.TopologyRequest {
	req := &httpapi.TopologyRequest{Ops: make([]httpapi.TopoOp, len(o.topo))}
	for i, u := range o.topo {
		kind := "resource"
		if u.Party {
			kind = "party"
		}
		req.Ops[i] = httpapi.TopoOp{Op: u.Op.String(), Kind: kind, Row: u.Row, Agent: u.Agent, Coeff: u.Coeff}
	}
	return req
}

// apply returns the model instance after the op, exactly as the daemon's
// session computes it (the same mmlp functions on the same values).
func (o *op) apply(in *mmlp.Instance) (*mmlp.Instance, *mmlp.TopoDiff, error) {
	if o.weights != nil {
		res := make([]mmlp.CoeffUpdate, len(o.weights.Resources))
		for i, p := range o.weights.Resources {
			res[i] = mmlp.CoeffUpdate{Row: p.Row, Agent: p.Agent, Coeff: p.Coeff}
		}
		par := make([]mmlp.CoeffUpdate, len(o.weights.Parties))
		for i, p := range o.weights.Parties {
			par[i] = mmlp.CoeffUpdate{Row: p.Row, Agent: p.Agent, Coeff: p.Coeff}
		}
		out, err := in.UpdateCoeffs(res, par)
		return out, nil, err
	}
	return in.ApplyTopo(o.topo)
}

// fresh hands out coefficients no instance of the stream has ever held:
// every value is drawn from the generator's own range [0.5, 1.5) and
// redrawn if it was seen before, so no patched state can equal an
// earlier one and no ball LP after a patch can be a cache replay of one
// solved before it.
type fresh struct {
	rng  *rand.Rand
	seen map[uint64]bool
}

func newFresh(rng *rand.Rand, in *mmlp.Instance) *fresh {
	f := &fresh{rng: rng, seen: make(map[uint64]bool)}
	for i := 0; i < in.NumResources(); i++ {
		for _, e := range in.Resource(i) {
			f.seen[math.Float64bits(e.Coeff)] = true
		}
	}
	for k := 0; k < in.NumParties(); k++ {
		for _, e := range in.Party(k) {
			f.seen[math.Float64bits(e.Coeff)] = true
		}
	}
	return f
}

func (f *fresh) next() float64 {
	for {
		c := 0.5 + f.rng.Float64()
		if b := math.Float64bits(c); !f.seen[b] {
			f.seen[b] = true
			return c
		}
	}
}

// stream generates the seeded mutation sequence of a workload from the
// current model instance.
type stream interface {
	next(in *mmlp.Instance) (*op, error)
}

// weightStream is the first-seen weight patch: one agent's parameters
// change — two of its resource coefficients and two of its party
// coefficients, all fresh.
type weightStream struct {
	rng   *rand.Rand
	fresh *fresh
}

func newWeightStream(seed int64, in *mmlp.Instance) *weightStream {
	rng := rand.New(rand.NewSource(seed))
	return &weightStream{rng: rng, fresh: newFresh(rng, in)}
}

func (s *weightStream) next(in *mmlp.Instance) (*op, error) {
	for try := 0; try < 1000; try++ {
		v := s.rng.Intn(in.NumAgents())
		rs, ks := in.AgentResources(v), in.AgentParties(v)
		if len(rs) < 2 || len(ks) < 2 {
			continue
		}
		req := &httpapi.WeightsRequest{}
		for _, j := range s.rng.Perm(len(rs))[:2] {
			req.Resources = append(req.Resources, httpapi.CoeffPatch{Row: rs[j], Agent: v, Coeff: s.fresh.next()})
		}
		for _, j := range s.rng.Perm(len(ks))[:2] {
			req.Parties = append(req.Parties, httpapi.CoeffPatch{Row: ks[j], Agent: v, Coeff: s.fresh.next()})
		}
		return &op{weights: req}, nil
	}
	return nil, fmt.Errorf("weight stream: no agent with two resources and two parties")
}

// edge is one support entry (resource or party row, agent).
type edge struct {
	party      bool
	row, agent int
}

// churnStream is size-stationary structural churn in the CTMaaS
// join/leave shape: every op removes one live support entry and
// re-adds the oldest previously removed one with a fresh coefficient,
// so churnPool entries are missing at any time; every churnAgentEvery-th
// op also replaces one agent — it leaves every row and a
// new agent joins the same rows with fresh coefficients. Removals keep
// every row at two or more members and every agent in at least one
// resource and one party, so no row dies and every agent stays
// constrained.
type churnStream struct {
	rng   *rand.Rand
	fresh *fresh
	pool  []edge // removed entries awaiting re-add, oldest first
	live  []int  // agents that have not left
	ops   int
}

// The pool size and the replacement period are arbitrary choices: the
// CTMaaS fleet pattern gives the shape of churn (a member leaves, and a
// member joins with fresh parameters) but no rates.
const (
	churnPool       = 4  // support entries missing at any time
	churnAgentEvery = 10 // ops per agent replacement
)

func newChurnStream(seed int64, in *mmlp.Instance) *churnStream {
	rng := rand.New(rand.NewSource(seed))
	s := &churnStream{rng: rng, fresh: newFresh(rng, in)}
	for v := 0; v < in.NumAgents(); v++ {
		s.live = append(s.live, v)
	}
	return s
}

// prime returns the set-up patch that removes the first churnPool
// entries, after which every op is size-stationary.
func (s *churnStream) prime(in *mmlp.Instance) (*op, error) {
	o := &op{}
	cur := in
	for len(s.pool) < churnPool {
		e, err := s.pickRemoval(cur)
		if err != nil {
			return nil, err
		}
		u := removeEdge(e)
		next, _, err := cur.ApplyTopo([]mmlp.TopoUpdate{u})
		if err != nil {
			return nil, err
		}
		cur = next
		o.topo = append(o.topo, u)
		s.pool = append(s.pool, e)
	}
	return o, nil
}

func removeEdge(e edge) mmlp.TopoUpdate {
	if e.party {
		return mmlp.RemovePartyEdge(e.row, e.agent)
	}
	return mmlp.RemoveResourceEdge(e.row, e.agent)
}

func addEdge(e edge, coeff float64) mmlp.TopoUpdate {
	if e.party {
		return mmlp.AddPartyEdge(e.row, e.agent, coeff)
	}
	return mmlp.AddResourceEdge(e.row, e.agent, coeff)
}

// pickRemoval draws a live support entry whose removal keeps the row at
// two or more members and the agent in at least one row of the kind.
func (s *churnStream) pickRemoval(in *mmlp.Instance) (edge, error) {
	for try := 0; try < 10000; try++ {
		party := s.rng.Intn(2) == 1
		var row []mmlp.Entry
		var r int
		if party {
			r = s.rng.Intn(in.NumParties())
			row = in.Party(r)
		} else {
			r = s.rng.Intn(in.NumResources())
			row = in.Resource(r)
		}
		if len(row) < 3 {
			continue
		}
		v := row[s.rng.Intn(len(row))].Agent
		inc := in.AgentResources(v)
		if party {
			inc = in.AgentParties(v)
		}
		if len(inc) < 2 {
			continue
		}
		return edge{party: party, row: r, agent: v}, nil
	}
	return edge{}, fmt.Errorf("churn stream: no removable support entry")
}

func (s *churnStream) next(in *mmlp.Instance) (*op, error) {
	s.ops++
	gone, err := s.pickRemoval(in)
	if err != nil {
		return nil, err
	}
	back := s.pool[0]
	s.pool = append(s.pool[1:], gone)
	o := &op{topo: []mmlp.TopoUpdate{removeEdge(gone), addEdge(back, s.fresh.next())}}
	if s.ops%churnAgentEvery != 0 {
		return o, nil
	}
	// Agent replacement: read the leaving agent's rows after the edge ops
	// above, so the newcomer joins exactly the rows it then holds.
	cur, _, err := in.ApplyTopo(o.topo)
	if err != nil {
		return nil, err
	}
	li := s.rng.Intn(len(s.live))
	v, n := s.live[li], cur.NumAgents()
	o.topo = append(o.topo, mmlp.RemoveAgent(v), mmlp.AddAgent())
	for _, r := range cur.AgentResources(v) {
		o.topo = append(o.topo, mmlp.AddResourceEdge(r, n, s.fresh.next()))
	}
	for _, k := range cur.AgentParties(v) {
		o.topo = append(o.topo, mmlp.AddPartyEdge(k, n, s.fresh.next()))
	}
	s.live[li] = n
	for i := range s.pool {
		if s.pool[i].agent == v {
			s.pool[i].agent = n // the missing entry now belongs to the newcomer
		}
	}
	return o, nil
}
