package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sync"
)

// This file is the isomorphic-ball deduplication layer of the local-LP
// pipeline. The paper's instance families — tori, regular graphs, the
// §4 construction — are highly symmetric: most agents' local LPs (9) are
// element-for-element identical once written in ball-relative indices.
// Each candidate LP is summarised by a canonical fingerprint (the exact
// ball-relative constraint structure and coefficient bits); agents whose
// fingerprints match byte-for-byte share one simplex solve. Because a
// reused solution is only ever taken after an exact key comparison —
// the hash is just a bucket locator — the dedup path is bit-identical
// to solving every agent's LP independently: it returns the very same
// float64s the reference path would compute.

// keyRowEnd terminates one constraint row inside a canonical key. Local
// indices are < 2^31, so the sentinel can never collide with one.
const keyRowEnd = uint32(0xffffffff)

// appendKeyHeader starts a canonical key: the ball size determines the
// variable count (nLoc + 1 including ω) and the objective, so together
// with the rows it pins down the entire LP.
func appendKeyHeader(b []byte, nLoc, nRows int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(nLoc))
	return binary.LittleEndian.AppendUint32(b, uint32(nRows))
}

// appendKeyEntry appends one (ball-local column, coefficient) pair. The
// coefficient is encoded by its exact bit pattern: two keys are equal
// iff the assembled constraint rows hold identical float64s.
func appendKeyEntry(b []byte, localIdx int32, coeff float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(localIdx))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(coeff))
}

// appendKeyRowEnd closes a constraint row, making rows self-delimiting:
// a canonical key decodes back to exactly one LP.
func appendKeyRowEnd(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, keyRowEnd)
}

// fnv64a hashes a canonical key for bucket lookup: FNV-1a folded over
// 8-byte words instead of bytes (keys run to kilobytes on large balls,
// so byte-at-a-time hashing showed up in profiles). Any mixing function
// works here — collisions are harmless because entries are confirmed by
// exact key comparison before any reuse.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= 1099511628211
		b = b[8:]
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// cacheEntry is one solved local LP: its full canonical key (owned by
// the entry), the solution over the ball's local indices, the optimum ω
// and the pivots the solve took. Entries are immutable once stored —
// ball solvers hand out x by alias — so neither buffer is ever reused.
type cacheEntry struct {
	key    []byte
	x      []float64
	omega  float64
	pivots int
	hash   uint64
	// holders counts the retained session slots (one per agent per
	// radius) that reference the entry; changed only under the cache
	// mutex. A session-owned cache drops an entry when its last holder
	// releases it.
	holders int
}

// solveCache maps canonical fingerprints to solved local LPs. Buckets
// are keyed by hash; every probe confirms the full key with bytes.Equal,
// so a hash collision can cost a duplicate solve but never a wrong
// reuse. Entries are immutable once inserted and are referenced by
// pointer (never moved), so callers — the session's retained per-agent
// results, the distributed engines' ball solvers — may hold entries
// after the cache has dropped them. All access goes through the
// internal mutex, so one cache can be shared between a Solver session
// and the per-node solvers of a distributed run.
//
// A session-owned cache (newSessionCache) holds exactly the entries its
// retained balls reference: the session acquires every entry it
// installs and releases every entry it replaces, and an entry leaves
// its bucket with its last holder. Entries stored by callers that never
// acquire — ball solvers, LocalAverageOpt over the session's cache — are
// listed in unheld and dropped by the session's next sweep unless a
// ball acquired them meanwhile. A cache built by NewSolveCache keeps
// every entry and lists none.
type solveCache struct {
	mu       sync.Mutex
	buckets  map[uint64][]*cacheEntry
	size     int
	keyBytes int
	hits     int

	session bool
	unheld  []*cacheEntry
}

func newSolveCache() *solveCache {
	return &solveCache{buckets: make(map[uint64][]*cacheEntry)}
}

func newSessionCache() *solveCache {
	c := newSolveCache()
	c.session = true
	return c
}

// lookup returns the entry whose key equals key exactly, or nil.
func (c *solveCache) lookup(hash uint64, key []byte) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(hash, key)
}

func (c *solveCache) lookupLocked(hash uint64, key []byte) *cacheEntry {
	for _, e := range c.buckets[hash] {
		if bytes.Equal(e.key, key) {
			return e
		}
	}
	return nil
}

// insert stores copies of the key and solution (callers pass buffers
// they reuse) and returns the stored entry; nobody holds it.
func (c *solveCache) insert(hash uint64, key []byte, x []float64, omega float64, pivots int) *cacheEntry {
	return c.put(&cacheEntry{
		key:    append([]byte(nil), key...),
		x:      append([]float64(nil), x...),
		omega:  omega,
		pivots: pivots,
		hash:   hash,
	}, false)
}

// put stores e, taking ownership of its key and x, and returns the
// stored entry. If an equal key was stored concurrently (two nodes of a
// distributed run solving the same LP), the existing entry is returned
// instead — the duplicate solve produced bit-identical numbers, so
// either entry serves every holder. held promises that the caller will
// acquire the returned entry before the cache's next sweep; other
// entries of a session-owned cache are listed for that sweep.
func (c *solveCache) put(e *cacheEntry, held bool) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.lookupLocked(e.hash, e.key); old != nil {
		return old
	}
	c.buckets[e.hash] = append(c.buckets[e.hash], e)
	c.size++
	c.keyBytes += len(e.key)
	if c.session && !held {
		c.unheld = append(c.unheld, e)
	}
	return e
}

// acquire adds one holder to every non-nil entry of es. The entries
// must be stored in the cache.
func (c *solveCache) acquire(es []*cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range es {
		if e != nil {
			e.holders++
		}
	}
}

// release drops one holder from every non-nil entry of es; an entry
// whose last holder leaves is removed. A caller replacing entries
// acquires the new ones first, so an entry that is both replaced and
// re-installed never reaches zero holders.
func (c *solveCache) release(es []*cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range es {
		if e == nil {
			continue
		}
		e.holders--
		if e.holders == 0 {
			c.removeLocked(e)
		}
	}
}

// sweep removes the listed entries no ball has acquired, in time
// proportional to the list.
func (c *solveCache) sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.unheld {
		if e.holders == 0 {
			c.removeLocked(e)
		}
	}
	// Clear before truncating: the backing array must not keep dropped
	// entries reachable.
	clear(c.unheld)
	c.unheld = c.unheld[:0]
}

// removeLocked takes e out of its bucket; a no-op if it is already gone
// (an unheld entry that a ball acquired and released again).
func (c *solveCache) removeLocked(e *cacheEntry) {
	es := c.buckets[e.hash]
	i := slices.Index(es, e)
	if i < 0 {
		return
	}
	last := len(es) - 1
	es[i] = es[last]
	es[last] = nil
	if last == 0 {
		delete(c.buckets, e.hash)
	} else {
		c.buckets[e.hash] = es[:last]
	}
	c.size--
	c.keyBytes -= len(e.key)
}

// addHits bumps the cache-hit counter by n.
func (c *solveCache) addHits(n int) {
	c.mu.Lock()
	c.hits += n
	c.mu.Unlock()
}

// counts returns the distinct entries stored, the bytes of their keys
// and the hits served.
func (c *solveCache) counts() (size, keyBytes, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size, c.keyBytes, c.hits
}

// SolveCache is a reusable isomorphic-ball local-LP cache. Keys are
// purely content-based — the ball-relative constraint structure and the
// exact coefficient bits of the local LP (9) — so one cache may be
// shared across radii (AdaptiveAverage does) and even across instances.
// The zero value is not usable; construct with NewSolveCache. All
// operations are internally synchronised, so one cache may serve a
// Solver session and concurrent distributed-engine ball solvers at the
// same time.
type SolveCache struct{ c *solveCache }

// NewSolveCache returns an empty cache.
func NewSolveCache() *SolveCache { return &SolveCache{c: newSolveCache()} }

// DistinctSolves returns the number of distinct local LPs stored.
func (s *SolveCache) DistinctSolves() int { n, _, _ := s.c.counts(); return n }

// Hits returns how many solves were answered from the cache.
func (s *SolveCache) Hits() int { _, _, h := s.c.counts(); return h }
