package dist

import "fmt"

// Engine executes protocols over a Network. Every engine produces X
// vectors bit-identical to the sequential reference for every protocol;
// engines whose CostExact method reports true additionally reproduce
// its message/payload accounting bit-for-bit (the stabilising engine
// exchanges full tables every round, so its cost model is different by
// design).
//
// Engines are stateless and safe for concurrent use on distinct
// Networks; a single Network must not host two runs at once.
type Engine interface {
	// Name returns the name the engine was constructed under (see New).
	Name() string
	// Run executes one protocol over the network.
	Run(nw *Network, p Protocol) (*Trace, error)
	// CostExact reports whether the engine's Trace cost counters are
	// bit-comparable to the sequential reference.
	CostExact() bool
}

// Options parameterises engine construction. The zero value selects
// sensible defaults for every engine.
type Options struct {
	// Shards is the worker count of the sharded engine and the member
	// count of the partitioned engine; ≤ 0 selects GOMAXPROCS. Both
	// clamp to the agent count at run time.
	Shards int
	// Rounds is the schedule length of the stabilizing engine; ≤ 0
	// selects the protocol's horizon (its convergence time from a cold
	// start). Other engines always run exactly the horizon and ignore it.
	Rounds int
}

// New constructs an engine by name: "sequential" (the single-goroutine
// reference), "sharded" (a work-stealing pool of Options.Shards
// workers), "partitioned" (Options.Shards members exchanging boundary
// outboxes over an in-process loopback transport) or "stabilizing"
// (the self-stabilising mode run fault-free for Options.Rounds).
func New(name string, opt Options) (Engine, error) {
	switch name {
	case "partitioned", "sequential", "sharded", "stabilizing":
		return engine{name: name, opt: opt}, nil
	}
	return nil, fmt.Errorf("dist: unknown engine %q (known: %v)", name, Engines())
}

// Engines returns the engine names New accepts, in sorted order.
func Engines() []string {
	return []string{"partitioned", "sequential", "sharded", "stabilizing"}
}

// engine is every built-in engine: its name selects the run function.
type engine struct {
	name string
	opt  Options
}

func (e engine) Name() string { return e.name }

// CostExact is false only for the stabilizing engine, which exchanges
// full tables every round.
func (e engine) CostExact() bool { return e.name != "stabilizing" }

func (e engine) Run(nw *Network, p Protocol) (*Trace, error) {
	switch e.name {
	case "sequential":
		return nw.runSequential(p)
	case "sharded":
		return nw.runSharded(p, e.opt.Shards)
	case "partitioned":
		return nw.runPartitionedLoopback(p, e.opt.Shards)
	}
	return nw.runStabilizingOnce(p, e.opt.Rounds)
}

// runStabilizingOnce adapts the fault-injection engine to the one-shot
// Engine contract: a fault-free self-stabilising run long enough to
// converge from cold start, returning the final output vector. X is
// bit-identical to the flooding engines; the cost counters account full
// table exchanges per round (the price of perpetual fault tolerance)
// and are not comparable to flooding.
func (nw *Network) runStabilizingOnce(p Protocol, rounds int) (*Trace, error) {
	if p == nil {
		return nil, fmt.Errorf("dist: nil protocol")
	}
	if rounds <= 0 {
		rounds = p.Horizon()
		if rounds < 1 {
			rounds = 1
		}
	}
	run, err := nw.RunStabilizing(p, rounds, -1, nil)
	if err != nil {
		return nil, err
	}
	tr := &Trace{
		Protocol: p.Name(),
		X:        run.Outputs[len(run.Outputs)-1],
		Rounds:   run.Rounds,
		Messages: run.Messages,
		Payload:  run.Payload,
	}
	nw.recordRun("stabilizing", tr)
	return tr, nil
}
