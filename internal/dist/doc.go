// Package dist is the distributed message-passing runtime of the
// library: it executes the paper's local algorithms as synchronous
// protocols over the communication hypergraph H, in the model of
// Section 1.5 of Floréen–Kaski–Musto–Suomela (IPDPS 2008).
//
// # Model
//
// Every agent of the max-min LP is a network node. A node's hard-wired
// input (its "ROM") is its radius-1 knowledge: its own coefficients
// a_iv and c_kv, the full supports Vi and Vk of its own resources and
// parties, and its neighbour list in H. Everything else must be learned
// by exchanging messages with neighbours in synchronous rounds. The unit
// of payload is the agent record — one node's ROM — and Trace reports
// how many records were delivered in total and per node.
//
// # Protocols
//
// A Protocol is a deterministic local algorithm: it floods records for
// Horizon() rounds, after which each node knows the records of every
// agent within that distance, and then computes its activity x_v from
// that local view alone. SafeProtocol (equation (2)) needs zero rounds;
// AverageProtocol (Theorem 3) floods to distance 2R+1, re-solves the
// local LP (9) of every agent in its radius-R ball, and combines the
// solutions per equation (10). Because each node's computation replays
// the exact arithmetic of the centralised implementation in internal/
// core — same orderings, same floating-point operations — the
// distributed outputs agree bit-for-bit with core.Safe and
// core.LocalAverage.
//
// # Engines
//
// New constructs an engine by name; Engines lists the names. The
// sequential engine executes a protocol in a single goroutine, visiting
// nodes in ascending order: the deterministic reference. The sharded
// engine runs the same double-buffered rounds on a work-stealing pool
// of P workers separated by a round barrier, and the partitioned engine
// splits the agents into contiguous member slices that exchange
// boundary outboxes through a Transport — in-process here, over a
// TCPMesh between cluster workers (Network.RunPartitioned). Since every
// node's merge and output are pure functions of deterministically
// ordered messages, their results — including the cost accounting —
// are bit-for-bit identical to the sequential engine under any
// scheduling. The stabilizing engine runs the self-stabilising mode
// below fault-free: the same outputs, a different cost model.
//
// # Self-stabilisation
//
// Network.RunStabilizing executes a protocol in the self-stabilising
// mode of Section 1.1: nodes keep no trusted soft state, but instead
// maintain layered record tables K_0 ⊆ K_1 ⊆ … ⊆ K_T (T = Horizon())
// that are rebuilt every round from the neighbours' tables one level
// down plus the node's own ROM. Level d is therefore correct d rounds
// after the last fault, and the outputs return to the exact fault-free
// solution within one horizon of any transient state corruption —
// StabilizingRun.StableFrom reports when.
package dist
