// Package plancache memoizes control-plane preparation across the
// trials of one figure. Plan preparation — P4Update segment
// decomposition + UIM batches, ez-Segway message plans and congestion
// dependency graphs, OptOracle round schedules — is a pure function of
// (topology, flow, paths, version, size, ...), so when every trial of a
// grid shares one frozen topology the plans can be computed once and
// handed — immutable — to each trial instead of being rebuilt per trial.
//
// Cache implements the unified controlplane.Planner seam: each system's
// XxxCached wrapper builds a collision-free key (controlplane.KeyBuf
// with a per-system prefix byte), asks Cached and calls Memo only on a
// miss. A Cache is bound to a
// single frozen topology; queries about any other topology fall through
// to direct computation, so a mis-wired cache can never return plans
// for the wrong graph. Caches are safe for concurrent use by parallel
// trial workers: hits take a read lock, misses are single-flighted.
package plancache

import (
	"sync"

	"p4update/internal/controlplane"
	"p4update/internal/topo"
)

// Cache memoizes prepared plans for one shared topology. It plugs
// directly into controlplane.Controller.Plans, ezsegway.Controller.Plans
// and the other systems' Plans fields as a controlplane.Planner.
type Cache struct {
	g *topo.Topology

	mu       sync.RWMutex
	memo     map[string]entry
	inflight map[string]chan struct{}

	// Hits and Misses are cumulative counters (for benchmarks/tests).
	hits   uint64
	misses uint64
}

type entry struct {
	v   any
	err error
}

var _ controlplane.Planner = (*Cache)(nil)

// New returns a cache bound to g. Freezing g first is recommended (the
// cache is meant to be shared across goroutines, and path computation
// inside plan preparation is only concurrency-safe on a frozen
// topology).
func New(g *topo.Topology) *Cache {
	return &Cache{
		g:        g,
		memo:     make(map[string]entry),
		inflight: make(map[string]chan struct{}),
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}

// Cached implements controlplane.Planner: the read-locked lookup of
// Memo's hit path, without a compute closure.
func (c *Cache) Cached(t *topo.Topology, key []byte) (any, bool, error) {
	if t != c.g {
		return nil, false, nil
	}
	c.mu.RLock()
	e, ok := c.memo[string(key)]
	c.mu.RUnlock()
	if ok {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return e.v, ok, e.err
}

// Memo implements controlplane.Planner. Values stored under a key are
// shared across trials and must be treated as immutable.
func (c *Cache) Memo(t *topo.Topology, rawKey []byte, compute func() (any, error)) (any, error) {
	if t != c.g {
		return compute()
	}
	key := string(rawKey)
	var e entry
	c.acquire(key,
		func() bool { var ok bool; e, ok = c.memo[key]; return ok },
		func() { e.v, e.err = compute() },
		func() { c.memo[key] = e },
	)
	return e.v, e.err
}

// acquire single-flights computation of key: lookup runs under a read
// (then write) lock, compute outside all locks, store under the write
// lock. Exactly one caller per key computes; the rest wait.
func (c *Cache) acquire(key string, lookup func() bool, compute func(), store func()) {
	for {
		c.mu.RLock()
		hit := lookup()
		c.mu.RUnlock()
		if hit {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		if lookup() {
			c.hits++
			c.mu.Unlock()
			return
		}
		if done, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-done
			continue
		}
		done := make(chan struct{})
		c.inflight[key] = done
		c.mu.Unlock()

		compute()

		c.mu.Lock()
		store()
		c.misses++
		delete(c.inflight, key)
		c.mu.Unlock()
		close(done)
		return
	}
}
