package dist

import (
	"runtime"
	"sync"
	"time"

	"maxminlp/internal/obs"
	"maxminlp/internal/sched"
)

// barrier is a reusable synchronisation point for n goroutines: await
// blocks until all n have arrived, then releases the generation. When h
// is non-nil, each await records how long the caller waited — the skew
// between the fastest and slowest participant of the round.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
	h     *obs.Histogram
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	var t0 time.Time
	if b.h != nil {
		t0 = time.Now()
	}
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
		b.mu.Unlock()
	}
	if b.h != nil {
		b.h.ObserveDuration(time.Since(t0))
	}
}

// runSharded executes the protocol with a pool of P workers stealing
// node tasks from per-worker deques seeded in contiguous shards — the
// layout of the CSR index, so a worker's own nodes (and most of their
// neighbours, on lattice-like graphs) sit in one contiguous block of the
// flat arrays, while stealing rebalances rounds whose cost is skewed
// across the agent range. shards ≤ 0 selects GOMAXPROCS.
//
// Per round, every worker first stages the outboxes of the nodes it
// claims (the double buffer: the frontier written last round becomes the
// read-only outbox, and a fresh frontier starts accumulating), all
// workers rendezvous on a barrier, then the workers deliver to every
// node from its neighbours' outboxes, and a second barrier separates
// those reads from the next round's restaging. Each node task is claimed
// by exactly one worker per phase, reads of foreign outboxes are
// separated from their writes by the barrier, and each node merges its
// neighbours in ascending order — so the run is race-free and its
// outputs and cost trace are bit-for-bit identical to runSequential for
// every shard count and steal interleaving: P goroutines and 2P barrier
// waits per round, with each worker sweeping its own shard in index
// order before helping the stragglers.
func (nw *Network) runSharded(p Protocol, shards int) (*Trace, error) {
	nodes, err := nw.newFloodNodes(p)
	if err != nil {
		return nil, err
	}
	n := len(nodes)
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	b := newBarrier(shards)
	if m := nw.obsM; m != nil {
		b.h = m.BarrierWait
	}
	pool := sched.NewPool(n, shards, nil)
	stage := func(v int) { nodes[v].stageOutbox() }
	deliver := func(v int) {
		nd := nodes[v]
		for _, u := range nw.g.Neighbors(v) {
			if msg := nodes[u].outbox; len(msg) > 0 {
				nd.deliver(msg)
			}
		}
	}
	output := func(v int) { nodes[v].x, nodes[v].err = p.output(nodes[v].know) }
	var wg sync.WaitGroup
	wg.Add(shards)
	for w := 0; w < shards; w++ {
		go func(w int) {
			defer wg.Done()
			// Each barrier guarantees every worker has left the previous
			// phase's Work before any deque is reset for the next — the
			// pool's phase-reuse contract.
			for round := 0; round < p.Horizon(); round++ {
				pool.ResetOwn(w)
				pool.Work(w, stage)
				b.await() // every outbox staged and stable
				pool.ResetOwn(w)
				pool.Work(w, deliver)
				b.await() // every outbox read; restaging is safe again
			}
			pool.ResetOwn(w)
			pool.Work(w, output)
		}(w)
	}
	wg.Wait()
	if m := nw.obsM; m != nil {
		st := pool.Stats()
		m.SchedBundle().RecordRun(st.Steals, st.Parks, st.WorkerTasks)
	}
	tr := &Trace{Protocol: p.Name(), Rounds: p.Horizon()}
	out, err := nw.finish(tr, nodes)
	if err != nil {
		return nil, err
	}
	nw.recordRun("sharded", out)
	return out, nil
}
