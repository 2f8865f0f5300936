package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"maxminlp/internal/gen"
	"maxminlp/internal/hypergraph"
)

// localAverageDigest drives a Solver through a seeded stream of
// first-seen weight patches on the 24×24 random-weight torus — each op
// sets two resource and two party coefficients of one agent to values
// no earlier state held, so every op re-solves its balls from scratch —
// and hashes the bits of LocalAverage(2).X after the initial solve and
// after every op.
func localAverageDigest(t *testing.T, ops int) string {
	in, _ := gen.Torus([]int{24, 24}, gen.LatticeOptions{RandomWeights: true, Rng: rand.New(rand.NewSource(1))})
	s := NewSolver(in, hypergraph.Options{})
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]bool{}
	for i := 0; i < in.NumResources(); i++ {
		for _, e := range in.Resource(i) {
			seen[math.Float64bits(e.Coeff)] = true
		}
	}
	for k := 0; k < in.NumParties(); k++ {
		for _, e := range in.Party(k) {
			seen[math.Float64bits(e.Coeff)] = true
		}
	}
	fresh := func() float64 {
		for {
			c := 0.5 + rng.Float64()
			if b := math.Float64bits(c); !seen[b] {
				seen[b] = true
				return c
			}
		}
	}
	h := sha256.New()
	var buf [8]byte
	fold := func() {
		res, err := s.LocalAverage(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range res.X {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	fold()
	for op := 0; op < ops; op++ {
		v := rng.Intn(in.NumAgents())
		var ds []WeightDelta
		rs, ks := in.AgentResources(v), in.AgentParties(v)
		for _, j := range rng.Perm(len(rs))[:2] {
			ds = append(ds, WeightDelta{Kind: ResourceWeight, Row: rs[j], Agent: v, Coeff: fresh()})
		}
		for _, j := range rng.Perm(len(ks))[:2] {
			ds = append(ds, WeightDelta{Kind: PartyWeight, Row: ks[j], Agent: v, Coeff: fresh()})
		}
		if err := s.UpdateWeights(ds); err != nil {
			t.Fatal(err)
		}
		fold()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLocalAverageDigestPinned pins the served bits of the Theorem-3
// algorithm over 300 first-seen patches to the digest recorded from the
// full-tableau simplex, so an LP-layer change that moves any bit of any
// X fails here even where the golden LP corpus has no matching ball.
func TestLocalAverageDigestPinned(t *testing.T) {
	const want = "b19475345b61f3a1489933edaef5af1e53d82997f09a7dd2833a882183635489"
	if got := localAverageDigest(t, 300); got != want {
		t.Fatalf("LocalAverage(2).X digest over 300 first-seen ops = %s, want %s", got, want)
	}
}
