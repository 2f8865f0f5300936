// Package maxminlp is a library for approximating max-min linear programs
// with local algorithms, reproducing
//
//	P. Floréen, P. Kaski, T. Musto, J. Suomela:
//	"Approximating max-min linear programs with local algorithms",
//	IPDPS 2008 (arXiv:0710.1499).
//
// A max-min LP asks to maximise ω = min_k Σ_v c_kv·x_v subject to
// Σ_v a_iv·x_v ≤ 1 and x ≥ 0, where each agent v controls x_v and may
// only communicate within a constant-radius neighbourhood of the
// communication hypergraph (resource and party supports are the
// hyperedges).
//
// The package exposes:
//
//   - instance modelling (NewBuilder, Instance),
//   - the communication hypergraph with balls and relative growth γ(r)
//     (NewGraph, Graph),
//   - a centralised LP optimum for ground truth (SolveOptimal),
//   - the safe local 1-round ΔVI-approximation (Safe),
//   - the Theorem-3 local averaging algorithm with its per-instance
//     approximation certificate (LocalAverage),
//   - a long-lived solving session that amortises the CSR index, ball
//     indexes, LP workspaces and the isomorphic-ball solve cache across
//     queries, and re-solves incrementally after weight updates
//     (NewSolver, Solver.UpdateWeights); cmd/mmlpd serves sessions over
//     HTTP,
//   - a synchronous message-passing simulator whose engines —
//     sequential reference, sharded worker pool, partitioned members,
//     self-stabilising — are all bit-identical in their outputs
//     (NewNetwork, SafeProtocol, AverageProtocol, NewEngine, Engines),
//   - the flat CSR incidence index and precomputed ball views the
//     engines iterate (NewCSR, Graph.CSR, Graph.BallIndex),
//   - the Theorem-1 adversarial construction and its proof checker
//     (BuildLowerBound), and
//   - instance generators and the paper's two §2 applications
//     (Torus, Grid, RandomInstance, RandomSensorNetwork, RandomISP).
//
// See examples/ for runnable end-to-end programs and EXPERIMENTS.md for
// the paper-versus-measured reproduction record.
package maxminlp

import (
	"math/rand"

	"maxminlp/internal/apps"
	"maxminlp/internal/core"
	"maxminlp/internal/dist"
	"maxminlp/internal/gen"
	"maxminlp/internal/hypergraph"
	"maxminlp/internal/lowerbound"
	"maxminlp/internal/lp"
	"maxminlp/internal/mmlp"
	"maxminlp/internal/obs"
)

// Core model types, re-exported from the implementation packages.
type (
	// Instance is an immutable sparse max-min LP.
	Instance = mmlp.Instance
	// Builder constructs Instances incrementally.
	Builder = mmlp.Builder
	// Entry is one nonzero coefficient of a constraint or benefit row.
	Entry = mmlp.Entry
	// DegreeBounds carries the support-size bounds ΔVI, ΔVK, ΔIV, ΔKV.
	DegreeBounds = mmlp.DegreeBounds
	// Restriction is a sub-instance together with its index mappings.
	Restriction = mmlp.Restriction

	// Graph is the communication hypergraph of an instance.
	Graph = hypergraph.Graph
	// GraphOptions configures hypergraph construction.
	GraphOptions = hypergraph.Options
	// CSR is the immutable flat incidence index of an instance: []int32
	// offset/value arrays for the agent↔resource and agent↔party
	// relations with their coefficients. Graphs built by NewGraph carry
	// one (Graph.CSR); the flat engines and SafeFlat run off it.
	CSR = hypergraph.CSR
	// BallIndex holds the radius-r balls of every agent in one flat
	// arena, computed once via Graph.BallIndex and shared by the round
	// loops.
	BallIndex = hypergraph.BallIndex

	// AverageResult is the output and certificate of LocalAverage.
	AverageResult = core.AverageResult
	// AverageOptions tunes how the Theorem-3 algorithm executes (workers,
	// isomorphic-ball dedup, shared solve cache) without changing any
	// output bit.
	AverageOptions = core.AverageOptions
	// SolveCache is a reusable isomorphic-ball local-LP cache; share one
	// across LocalAverageOpt calls (keys are content-based, so it is
	// valid across radii and instances).
	SolveCache = core.SolveCache

	// Solver is a long-lived solving session over one instance: it owns
	// the CSR index, retains ball indexes per radius, shares one solve
	// cache across queries, and supports incremental re-solve after
	// weight updates. Methods are bit-identical to the free functions
	// and safe for concurrent use.
	Solver = core.Solver
	// SolverStats counts the work a session has performed (structure
	// builds, full/incremental/warm solves, cache traffic).
	SolverStats = core.SolverStats
	// WeightDelta is one coefficient change applied by
	// Solver.UpdateWeights; the entry must already exist (weight updates
	// never change topology).
	WeightDelta = core.WeightDelta
	// WeightKind selects the coefficient family of a WeightDelta.
	WeightKind = core.WeightKind
	// CoeffUpdate is the instance-level form of a coefficient change
	// (Instance.UpdateCoeffs).
	CoeffUpdate = mmlp.CoeffUpdate
	// TopoUpdate is one structural change — an agent, resource, party or
	// support entry joining or leaving — applied by Instance.ApplyTopo
	// and Solver.UpdateTopology. Build them with AddAgent, RemoveAgent,
	// AddResourceEdge, AddPartyEdge, RemoveResourceEdge and
	// RemovePartyEdge.
	TopoUpdate = mmlp.TopoUpdate
	// TopoOp selects the kind of a TopoUpdate.
	TopoOp = mmlp.TopoOp
	// TopoDiff reports what a structural update batch changed.
	TopoDiff = mmlp.TopoDiff

	// Network runs distributed protocols over an instance.
	Network = dist.Network
	// Protocol is a distributed algorithm runnable on a Network.
	Protocol = dist.Protocol
	// Trace reports the cost and output of one protocol execution.
	Trace = dist.Trace
	// SafeProtocol is the safe algorithm as a zero-round protocol.
	SafeProtocol = dist.SafeProtocol
	// AverageProtocol is the Theorem-3 algorithm as a message-passing
	// protocol with horizon Θ(R).
	AverageProtocol = dist.AverageProtocol
	// StabilizingAverage is the self-stabilising transformation of
	// AverageProtocol (§1.1): run via Network.RunStabilizing, it recovers
	// the exact fault-free outputs within one horizon of any transient
	// state corruption.
	StabilizingAverage = dist.StabilizingAverage
	// StabilizingRun reports the outputs and stabilisation round of a
	// RunStabilizing execution.
	StabilizingRun = dist.StabilizingRun
	// StabNodeHandle lets fault injectors corrupt node state.
	StabNodeHandle = dist.StabNodeHandle
	// Engine is a named protocol-execution engine (NewEngine, Engines);
	// all engines produce bit-identical outputs.
	Engine = dist.Engine
	// EngineOptions tunes engine construction (shard count, stabilising
	// round budget); the zero value picks sensible defaults.
	EngineOptions = dist.Options

	// LowerBoundParams configures the Theorem-1 construction.
	LowerBoundParams = lowerbound.Params
	// LowerBound is the instantiated adversarial construction.
	LowerBound = lowerbound.Construction
	// SPrime is the restricted instance S' of Section 4.3.
	SPrime = lowerbound.SPrime
	// CheckReport is the proof checker's verdict.
	CheckReport = lowerbound.CheckReport

	// SensorNetwork is the §2 two-tier sensor deployment model.
	SensorNetwork = apps.SensorNetwork
	// SensorNetworkOptions configures random deployments.
	SensorNetworkOptions = apps.SensorNetworkOptions
	// ISPNetwork is the §2 ISP fair-bandwidth model.
	ISPNetwork = apps.ISPNetwork
	// ISPOptions configures random ISP topologies.
	ISPOptions = apps.ISPOptions

	// Lattice maps between grid coordinates and agent indices.
	Lattice = gen.Lattice
	// LatticeOptions configures grid and torus generation.
	LatticeOptions = gen.LatticeOptions
	// RandomOptions configures random instance generation.
	RandomOptions = gen.RandomOptions

	// MetricsRegistry owns metric families (counters, gauges, fixed-bucket
	// histograms) with an allocation-free atomic hot path and Prometheus
	// text exposition (MetricsRegistry.WritePrometheus). A nil registry
	// hands out nil metrics whose methods all no-op — the disabled mode
	// instrumented code relies on.
	MetricsRegistry = obs.Registry
	// SolveMetrics is the bundle of solve-pipeline metrics a Solver
	// records once attached via Solver.SetObs: per-phase latencies,
	// pass/cache counters, and update invalidation costs.
	SolveMetrics = obs.SolveMetrics
	// DistMetrics is the bundle the distributed engines record once
	// attached via Network.SetObs: rounds, messages, payload, per-round
	// message counts and barrier wait time.
	DistMetrics = obs.DistMetrics
	// HistogramSnapshot is a point-in-time histogram summary
	// (count/sum/p50/p90/p99), the shape stats endpoints and bench
	// reports use.
	HistogramSnapshot = obs.HistogramSnapshot
)

// NewBuilder returns a Builder pre-sized for the given number of agents.
func NewBuilder(agents int) *Builder { return mmlp.NewBuilder(agents) }

// NewGraph builds the communication hypergraph of an instance: agents are
// adjacent iff they share a resource or (unless CollaborationOblivious)
// a party.
func NewGraph(in *Instance, opt GraphOptions) *Graph {
	return hypergraph.FromInstance(in, opt)
}

// OptimalResult is the centralised LP optimum of an instance.
type OptimalResult = lp.MaxMinResult

// SolveOptimal computes the global optimum of the max-min LP with the
// built-in simplex solver (Section 1.3 formulation). It is the ground
// truth that local algorithms are measured against; it is not itself a
// local algorithm.
func SolveOptimal(in *Instance) (OptimalResult, error) { return lp.SolveMaxMin(in) }

// Safe computes the safe solution x_v = min_{i∈Iv} 1/(a_iv·|Vi|)
// (equation (2)), a local ΔVI-approximation with horizon 1.
func Safe(in *Instance) []float64 { return core.Safe(in) }

// NewCSR builds the flat incidence index of an instance. NewGraph
// already attaches one to the graphs it returns; this constructor is for
// callers that want the index without the adjacency structure.
func NewCSR(in *Instance) *CSR { return hypergraph.NewCSR(in) }

// SafeFlat is Safe evaluated over a prebuilt CSR index — the same
// values with no per-agent row lookups.
func SafeFlat(csr *CSR) []float64 { return core.SafeFlat(csr) }

// SafeRatioBound returns ΔVI, the proven approximation ratio of Safe.
func SafeRatioBound(in *Instance) float64 { return core.SafeRatioBound(in) }

// LocalAverage runs the Theorem-3 local averaging algorithm with radius R
// over the given communication graph. The result is always feasible and
// carries a per-instance approximation certificate bounded by
// γ(R−1)·γ(R).
func LocalAverage(in *Instance, g *Graph, radius int) (*AverageResult, error) {
	return core.LocalAverage(in, g, radius)
}

// LocalAverageParallel is LocalAverage with the independent per-agent
// local LPs solved by a pool of worker goroutines (workers ≤ 0 selects
// GOMAXPROCS). The result is bit-identical to LocalAverage.
func LocalAverageParallel(in *Instance, g *Graph, radius, workers int) (*AverageResult, error) {
	return core.LocalAverageParallel(in, g, radius, workers)
}

// LocalAverageOpt is LocalAverage with explicit execution options:
// worker count, the isomorphic-ball dedup switch (on by default; agents
// whose local LPs are element-for-element identical share one simplex
// run, reported via AverageResult.LocalLPs and SolvesAvoided), and an
// optional shared SolveCache. Every option combination returns
// bit-identical results; dedup reuses a solution only after an exact
// canonical-key match, never from the hash alone.
func LocalAverageOpt(in *Instance, g *Graph, radius int, opt AverageOptions) (*AverageResult, error) {
	return core.LocalAverageOpt(in, g, radius, opt)
}

// NewSolveCache returns an empty isomorphic-ball LP cache for
// LocalAverageOpt / AdaptiveAverageOpt to share across calls.
func NewSolveCache() *SolveCache { return core.NewSolveCache() }

// Weight-delta kinds for Solver.UpdateWeights.
const (
	// ResourceWeight updates a_iv of resource Row and agent Agent.
	ResourceWeight = core.ResourceWeight
	// PartyWeight updates c_kv of party Row and agent Agent.
	PartyWeight = core.PartyWeight
)

// Structural-update ops for Solver.UpdateTopology / Instance.ApplyTopo.
const (
	// TopoAddAgent appends one detached agent.
	TopoAddAgent = mmlp.TopoAddAgent
	// TopoRemoveAgent detaches an agent from every row.
	TopoRemoveAgent = mmlp.TopoRemoveAgent
	// TopoAddEdge adds one support entry (Row == row count creates the row).
	TopoAddEdge = mmlp.TopoAddEdge
	// TopoRemoveEdge removes one support entry (a row may die).
	TopoRemoveEdge = mmlp.TopoRemoveEdge
)

// AddAgent returns the topology update that appends one detached agent;
// wire it in with AddResourceEdge/AddPartyEdge in the same batch.
func AddAgent() TopoUpdate { return mmlp.AddAgent() }

// RemoveAgent returns the topology update that detaches agent v: it
// leaves every row it was in and its activity is 0 from here on.
func RemoveAgent(v int) TopoUpdate { return mmlp.RemoveAgent(v) }

// AddResourceEdge returns the topology update that adds a_iv = coeff;
// i may equal NumResources to create the resource.
func AddResourceEdge(i, v int, coeff float64) TopoUpdate { return mmlp.AddResourceEdge(i, v, coeff) }

// AddPartyEdge returns the topology update that adds c_kv = coeff;
// k may equal NumParties to create the party.
func AddPartyEdge(k, v int, coeff float64) TopoUpdate { return mmlp.AddPartyEdge(k, v, coeff) }

// RemoveResourceEdge returns the topology update that removes agent v
// from the support of resource i.
func RemoveResourceEdge(i, v int) TopoUpdate { return mmlp.RemoveResourceEdge(i, v) }

// RemovePartyEdge returns the topology update that removes agent v from
// the support of party k.
func RemovePartyEdge(k, v int) TopoUpdate { return mmlp.RemovePartyEdge(k, v) }

// NewMetricsRegistry returns an empty enabled metrics registry. Attach
// bundles built on it to sessions (Solver.SetObs) and networks
// (Network.SetObs); serve it with MetricsRegistry.WritePrometheus.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSolveMetrics registers the solve-pipeline metric bundle on r. A
// nil registry yields a nil bundle, which records nothing — attaching
// it is equivalent to never calling SetObs.
func NewSolveMetrics(r *MetricsRegistry) *SolveMetrics { return obs.NewSolveMetrics(r) }

// NewDistMetrics registers the distributed-engine metric bundle on r
// (nil registry → nil no-op bundle).
func NewDistMetrics(r *MetricsRegistry) *DistMetrics { return obs.NewDistMetrics(r) }

// NewSolver builds a solving session from an instance: the communication
// hypergraph and CSR index are constructed once and every later query —
// Safe, LocalAverage, Adaptive, Certificate — amortises them, with
// results bit-identical to the free functions. UpdateWeights patches
// coefficients in place and invalidates only the ball-local LPs that can
// see them; the next query re-solves just those.
func NewSolver(in *Instance, opt GraphOptions) *Solver { return core.NewSolver(in, opt) }

// NewSolverFromGraph builds a session over a prebuilt communication
// hypergraph (reusing its CSR index when it has one).
func NewSolverFromGraph(in *Instance, g *Graph) *Solver { return core.NewSolverFromGraph(in, g) }

// NewSessionNetwork binds a Solver session for distributed execution:
// the engines reuse the session's retained ball indexes and shared solve
// cache for their per-node output computations, with outputs and traces
// bit-identical to a plain NewNetwork run.
func NewSessionNetwork(s *Solver) (*Network, error) { return dist.NewSessionNetwork(s) }

// AdaptiveResult is the outcome of AdaptiveAverage.
type AdaptiveResult = core.AdaptiveResult

// AdaptiveAverage grows the averaging radius until the per-instance
// certificate meets the target ratio (Theorem 3 as a local approximation
// scheme), then runs LocalAverage at that radius. On expanding graphs the
// target may be unreachable; Achieved reports which case occurred.
func AdaptiveAverage(in *Instance, g *Graph, targetRatio float64, maxRadius int) (*AdaptiveResult, error) {
	return core.AdaptiveAverage(in, g, targetRatio, maxRadius)
}

// AdaptiveAverageOpt is AdaptiveAverage with explicit execution options
// for the final averaging run; pass one AverageOptions.Cache through
// repeated calls to share solved local LPs across them (canonical keys
// are radius-independent).
func AdaptiveAverageOpt(in *Instance, g *Graph, targetRatio float64, maxRadius int, opt AverageOptions) (*AdaptiveResult, error) {
	return core.AdaptiveAverageOpt(in, g, targetRatio, maxRadius, opt)
}

// Certificate computes the Theorem-3 approximation certificate
// (max_k M_k/m_k, max_i N_i/n_i) at the given radius without solving any
// local LP.
func Certificate(in *Instance, g *Graph, radius int) (partyBound, resourceBound float64, err error) {
	return core.Certificate(in, g, radius)
}

// NewNetwork binds an instance to its communication hypergraph for
// distributed execution.
func NewNetwork(in *Instance, g *Graph) (*Network, error) { return dist.NewNetwork(in, g) }

// NewEngine constructs a protocol-execution engine by name
// ("sequential", "sharded", "partitioned", "stabilizing"); it is the one
// way to run a protocol on a Network. Every engine produces
// bit-identical solution vectors; they differ only in scheduling and in
// whether their cost accounting is exact (Engine.CostExact).
func NewEngine(name string, opt EngineOptions) (Engine, error) { return dist.New(name, opt) }

// Engines lists the engine names NewEngine accepts, sorted.
func Engines() []string { return dist.Engines() }

// BuildLowerBound instantiates the Theorem-1 adversarial construction.
func BuildLowerBound(p LowerBoundParams) (*LowerBound, error) { return lowerbound.Build(p) }

// Torus builds a d-dimensional torus instance (one agent, resource and
// party per cell, supports = closed von-Neumann neighbourhoods).
func Torus(dims []int, opt LatticeOptions) (*Instance, *Lattice) { return gen.Torus(dims, opt) }

// Grid is Torus without wraparound.
func Grid(dims []int, opt LatticeOptions) (*Instance, *Lattice) { return gen.Grid(dims, opt) }

// RandomInstance generates a random bounded-degree max-min LP.
func RandomInstance(opt RandomOptions, rng *rand.Rand) *Instance { return gen.Random(opt, rng) }

// RandomSensorNetwork samples a two-tier sensor deployment (§2).
func RandomSensorNetwork(opt SensorNetworkOptions, rng *rand.Rand) *SensorNetwork {
	return apps.RandomSensorNetwork(opt, rng)
}

// RandomISP samples an ISP access-network topology (§2).
func RandomISP(opt ISPOptions, rng *rand.Rand) *ISPNetwork { return apps.RandomISP(opt, rng) }
