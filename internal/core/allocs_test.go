package core

import (
	"bytes"
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/stats"
)

// CI gates for the front-end read path's zero-alloc contract: a full
// cache evicts and refills from its slab without touching the heap, and
// a posted multi-get round reuses the handle's PendingReads and result
// arena. AllocsPerRun is deterministic, so these run in plain `go test`.

func TestCachePutEvictZeroAllocs(t *testing.T) {
	const entries = 256
	for _, pol := range []Policy{PolicyHybrid, PolicyLRU, PolicyRR} {
		st := &stats.Stats{}
		c := NewCache(64*entries, pol, st)
		data := make([]byte, 64)
		next := uint64(1)
		put := func() {
			c.Put(next, data, uint32(next%3), EpochAlways)
			next++
		}
		// Fill, then cycle the population a few times so every slot,
		// buffer and index bucket exists.
		for i := 0; i < 4*entries; i++ {
			put()
		}
		before := st.CacheEvict.Load()
		const runs = 1000
		allocs := testing.AllocsPerRun(runs, put)
		if allocs != 0 {
			t.Errorf("policy %d: Put into a full cache allocates %.1f/op, want 0", pol, allocs)
		}
		// AllocsPerRun makes one extra warm-up call.
		if ev := st.CacheEvict.Load() - before; ev != runs+1 {
			t.Errorf("policy %d: %d evictions over %d puts, want one per put", pol, ev, runs+1)
		}
		if c.Len() != entries {
			t.Errorf("policy %d: %d entries, want %d", pol, c.Len(), entries)
		}
	}
}

func TestPostReadMultiAllHitZeroAllocs(t *testing.T) {
	r := newRig(t, 16<<20)
	fe := r.frontend(1, ModeRC(1<<20).WithPipeline(8))
	c := r.connect(fe)
	h, err := c.Create("multi", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	const keys, unit = 16, 64
	addrs := make([]uint64, keys)
	for i := range addrs {
		if addrs[i], err = h.Alloc(unit); err != nil {
			t.Fatal(err)
		}
		if _, err := h.OpLog(1, nil); err != nil {
			t.Fatal(err)
		}
		if err := h.Write(addrs[i], bytes.Repeat([]byte{byte(i + 1)}, unit)); err != nil {
			t.Fatal(err)
		}
		if err := h.EndOp(); err != nil {
			t.Fatal(err)
		}
	}
	// Drain empties the overlay, so the first round misses and fills the
	// cache and every later round is all hits.
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	round := func() {
		p, err := h.PostReadMulti(addrs, unit, true)
		if err != nil {
			t.Fatal(err)
		}
		bufs, err := p.Settle()
		if err != nil {
			t.Fatal(err)
		}
		if len(bufs) != keys || bufs[keys-1][0] != keys {
			t.Fatalf("round returned %d buffers, last starts %d", len(bufs), bufs[keys-1][0])
		}
	}
	round()
	before := fe.Stats().Snapshot()
	allocs := testing.AllocsPerRun(200, round)
	if allocs != 0 {
		t.Errorf("all-hit PostReadMulti+Settle round allocates %.1f/op, want 0", allocs)
	}
	d := fe.Stats().Snapshot().Sub(before)
	if d.CacheHit != 201*keys || d.RDMARead != 0 {
		t.Fatalf("rounds were not all hits: %d hits, %d RDMA reads", d.CacheHit, d.RDMARead)
	}
}
