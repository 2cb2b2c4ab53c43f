// Package core implements the AsymNVM front-end framework — the paper's
// primary contribution. A front-end node mounts remote back-ends over the
// RDMA fabric and gives data-structure implementations the underlying API
// of Table 1: rnvm_read/rnvm_write, rnvm_mem_log/rnvm_op_log/rnvm_tx_write,
// rnvm_malloc/rnvm_free, and the writer/reader locks — together with the
// DRAM cache, memory-log batching, the Gather–Apply write path, and the
// crash-recovery client side of §7.2.
package core

import (
	"math/rand"

	"asymnvm/internal/stats"
)

// Policy selects the cache replacement strategy of §4.4.
type Policy int

// Replacement policies. PolicyHybrid is the paper's choice: pick a random
// candidate set, evict the least recently used member — LRU-quality hit
// ratios at random-replacement cost.
const (
	PolicyHybrid Policy = iota
	PolicyLRU
	PolicyRR
)

// HybridSetSize is the random candidate-set size (32 in §4.4).
const HybridSetSize = 32

// noEntry terminates the slab's intrusive lists.
const noEntry int32 = -1

// cacheEntry is one slab slot. A vacant slot may keep its data buffer,
// so the next insertion that takes the slot refills it in place.
type cacheEntry struct {
	addr  uint64
	epoch uint64 // seqlock SN the bytes were read under; ^0 = always valid
	data  []byte
	tag   uint32 // owning structure (for per-structure invalidation)
	slot  int32  // position in the sampling order (sample/use)
	// Intrusive per-tag list, and the recency list (PolicyLRU only;
	// head = most recent).
	tagPrev, tagNext int32
	lruPrev, lruNext int32
}

// EpochAlways marks entries that never go stale (immutable nodes of
// multi-version structures, and the single writer's own write-through
// entries).
const EpochAlways = ^uint64(0)

// Cache is the front-end DRAM object cache. Entries are whole structure
// nodes ("pages" whose size is set per structure, §4.4), keyed by global
// NVM address. Owned by a single front-end actor; not safe for concurrent
// use.
//
// Entries live in a slab indexed by int32 with a free list, and a vacant
// slot keeps its data buffer for the next insertion, so a full cache
// evicts and refills without allocating. Retained buffers are bounded:
// an entry's buffer never exceeds twice its bytes (plus a word), and
// vacant slots keep at most capacity bytes of buffers between them (the
// rest go to the garbage collector). The hybrid policy samples from a
// dense sample order with the use ticks in a parallel array; removal
// swaps the last sample into the hole. Each structure's entries form an
// intrusive list for InvalidateTag, and only PolicyLRU keeps a recency
// list.
type Cache struct {
	capacity int64
	used     int64
	spare    int64 // buffer capacity held by vacant slots
	policy   Policy
	index    map[uint64]int32 // addr -> slab slot
	slab     []cacheEntry
	free     []int32          // vacant slab slots
	tagHead  map[uint32]int32 // per-structure list heads
	lruHead  int32
	lruTail  int32
	sample   []int32  // live slab slots in sampling order
	use      []uint64 // logical use tick, parallel to sample
	tick     uint64
	rng      *rand.Rand
	st       *stats.Stats

	tagScanned int // entries visited by the last InvalidateTag (test hook)
}

// NewCache builds a cache holding at most capacity bytes of node data.
func NewCache(capacity int64, policy Policy, st *stats.Stats) *Cache {
	if st == nil {
		st = &stats.Stats{}
	}
	return &Cache{
		capacity: capacity,
		policy:   policy,
		index:    make(map[uint64]int32),
		tagHead:  make(map[uint32]int32),
		lruHead:  noEntry,
		lruTail:  noEntry,
		rng:      rand.New(rand.NewSource(0x5eed)),
		st:       st,
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return len(c.sample) }

// Used reports the cached bytes.
func (c *Cache) Used() int64 { return c.used }

// Get returns the cached bytes for addr when present and valid at epoch.
// Entries tagged EpochAlways match any epoch. The returned slice is the
// cache's own buffer and is reused once the entry is replaced or evicted:
// callers copy out before the next Put. A miss is counted only when
// countMiss is set — reads the caller deliberately routes around the
// cache (cold tree levels, §8.3) are direct remote reads, not cache
// misses.
func (c *Cache) Get(addr uint64, epoch uint64, countMiss bool) ([]byte, bool) {
	i, ok := c.index[addr]
	if ok {
		e := &c.slab[i]
		if e.epoch == EpochAlways || e.epoch == epoch {
			c.touch(i)
			c.st.CacheHit.Add(1)
			return e.data, true
		}
		// Stale under the seqlock: drop so the refill replaces it.
		c.remove(i)
	}
	if countMiss {
		c.st.CacheMiss.Add(1)
	}
	return nil, false
}

// Contains reports presence without counting a hit or miss.
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.index[addr]
	return ok
}

// Put inserts (or replaces) the bytes for addr.
func (c *Cache) Put(addr uint64, data []byte, tag uint32, epoch uint64) {
	if int64(len(data)) > c.capacity {
		return // larger than the whole cache: bypass
	}
	if i, ok := c.index[addr]; ok {
		e := &c.slab[i]
		c.used += int64(len(data)) - int64(len(e.data))
		fill(e, data)
		if e.tag != tag {
			c.untag(i)
			e.tag = tag
			c.retag(i)
		}
		e.epoch = epoch
		c.touch(i)
	} else {
		i := c.takeSlot()
		e := &c.slab[i]
		e.addr, e.tag, e.epoch = addr, tag, epoch
		fill(e, data)
		e.slot = int32(len(c.sample))
		c.sample = append(c.sample, i)
		c.use = append(c.use, 0)
		c.index[addr] = i
		c.retag(i)
		if c.policy == PolicyLRU {
			c.lruPushFront(i)
		}
		c.used += int64(len(data))
		c.touch(i)
	}
	for c.used > c.capacity {
		c.evictOne()
	}
}

// Update applies an in-place sub-range modification to a cached entry if
// present (the write-through of Figure 4's step 4). It reports whether the
// entry existed.
func (c *Cache) Update(addr uint64, off int, data []byte) bool {
	i, ok := c.index[addr]
	if !ok {
		return false
	}
	e := &c.slab[i]
	if off < 0 || off+len(data) > len(e.data) {
		// Partial overlap with a differently-sized entry: drop it.
		c.remove(i)
		return false
	}
	copy(e.data[off:], data)
	return true
}

// Invalidate drops the entry for addr if present.
func (c *Cache) Invalidate(addr uint64) {
	if i, ok := c.index[addr]; ok {
		c.remove(i)
	}
}

// InvalidateTag drops every entry owned by one structure. The per-tag
// list makes this O(entries of that tag) instead of a full-cache scan —
// dropping one structure must not stall a front-end caching millions of
// nodes from its neighbours.
func (c *Cache) InvalidateTag(tag uint32) {
	c.tagScanned = 0
	i, ok := c.tagHead[tag]
	for ok && i != noEntry {
		next := c.slab[i].tagNext
		c.remove(i)
		c.tagScanned++
		i = next
	}
}

// Clear empties the cache (used when a back-end failure aborts the
// in-flight transaction, §4.3). The slots are kept; their buffers are
// released.
func (c *Cache) Clear() {
	for _, i := range c.sample {
		c.slab[i].data = nil
		c.free = append(c.free, i)
	}
	clear(c.index)
	clear(c.tagHead)
	c.sample = c.sample[:0]
	c.use = c.use[:0]
	c.lruHead, c.lruTail = noEntry, noEntry
	c.used = 0
}

// takeSlot pops a vacant slab slot, growing the slab when none is free.
func (c *Cache) takeSlot() int32 {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		c.spare -= int64(cap(c.slab[i].data))
		return i
	}
	c.slab = append(c.slab, cacheEntry{})
	return int32(len(c.slab) - 1)
}

func (c *Cache) touch(i int32) {
	c.tick++
	c.use[c.slab[i].slot] = c.tick
	if c.policy == PolicyLRU && c.lruHead != i {
		c.lruUnlink(i)
		c.lruPushFront(i)
	}
}

func (c *Cache) lruPushFront(i int32) {
	e := &c.slab[i]
	e.lruPrev, e.lruNext = noEntry, c.lruHead
	if c.lruHead != noEntry {
		c.slab[c.lruHead].lruPrev = i
	} else {
		c.lruTail = i
	}
	c.lruHead = i
}

func (c *Cache) lruUnlink(i int32) {
	e := &c.slab[i]
	if e.lruPrev != noEntry {
		c.slab[e.lruPrev].lruNext = e.lruNext
	} else {
		c.lruHead = e.lruNext
	}
	if e.lruNext != noEntry {
		c.slab[e.lruNext].lruPrev = e.lruPrev
	} else {
		c.lruTail = e.lruPrev
	}
}

// retag links slot i into its tag's list, right behind the head when
// the list exists, so the head map is written only for a new tag.
func (c *Cache) retag(i int32) {
	e := &c.slab[i]
	head, ok := c.tagHead[e.tag]
	if !ok {
		e.tagPrev, e.tagNext = noEntry, noEntry
		c.tagHead[e.tag] = i
		return
	}
	h := &c.slab[head]
	e.tagPrev, e.tagNext = head, h.tagNext
	if h.tagNext != noEntry {
		c.slab[h.tagNext].tagPrev = i
	}
	h.tagNext = i
}

func (c *Cache) untag(i int32) {
	e := &c.slab[i]
	switch {
	case e.tagPrev != noEntry:
		c.slab[e.tagPrev].tagNext = e.tagNext
	case e.tagNext != noEntry:
		c.tagHead[e.tag] = e.tagNext
	default:
		delete(c.tagHead, e.tag)
	}
	if e.tagNext != noEntry {
		c.slab[e.tagNext].tagPrev = e.tagPrev
	}
}

// remove frees slot i; the last sample moves into its sampling position.
func (c *Cache) remove(i int32) {
	e := &c.slab[i]
	delete(c.index, e.addr)
	c.untag(i)
	if c.policy == PolicyLRU {
		c.lruUnlink(i)
	}
	last := len(c.sample) - 1
	moved := c.sample[last]
	c.sample[e.slot] = moved
	c.use[e.slot] = c.use[last]
	c.slab[moved].slot = e.slot
	c.sample = c.sample[:last]
	c.use = c.use[:last]
	c.used -= int64(len(e.data))
	if c.spare+int64(cap(e.data)) > c.capacity {
		e.data = nil
	} else {
		e.data = e.data[:0]
		c.spare += int64(cap(e.data))
	}
	c.free = append(c.free, i)
}

// fill copies data into e's buffer, replacing a buffer more than twice
// the size (plus a word) of what it is to hold.
func fill(e *cacheEntry, data []byte) {
	if cap(e.data) > 2*len(data)+8 {
		e.data = nil
	}
	e.data = append(e.data[:0], data...)
}

// evictOne removes one victim according to the policy.
func (c *Cache) evictOne() {
	n := len(c.sample)
	if n == 0 {
		return
	}
	var victim int // position in the sampling order
	switch c.policy {
	case PolicyLRU:
		victim = int(c.slab[c.lruTail].slot)
	case PolicyRR:
		victim = c.rng.Intn(n)
	default: // PolicyHybrid: random set, then least-recently-used member
		k := HybridSetSize
		if k > n {
			k = n
		}
		victim = -1
		for j := 0; j < k; j++ {
			cand := c.rng.Intn(n)
			if victim < 0 || c.use[cand] < c.use[victim] {
				victim = cand
			}
		}
	}
	c.remove(c.sample[victim])
	c.st.CacheEvict.Add(1)
}
