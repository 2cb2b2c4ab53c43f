package ds

import (
	"bytes"
	"math/rand"
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/nvm"
)

// TestHashTableGetMulti checks that the pipelined multi-get returns
// exactly what per-key Gets return — including missing keys, updated
// keys, and keys colliding into the same bucket — and that it pays
// fewer round trips than the sequential walk would.
func TestHashTableGetMulti(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR().WithPipeline(16))
	ht, err := CreateHashTable(c, "hmg", Options{Create: testCreate, Buckets: 8, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40 // 8 buckets → chains of ~5: real level-synchronous walks
	for i := 0; i < n; i++ {
		if err := ht.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ht.Put(7, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := ht.Drain(); err != nil {
		t.Fatal(err)
	}

	keys := []uint64{0, 7, 13, 999, 39, 7, 1000000, 21}
	st := c.Frontend().Stats()
	verbsBefore := st.Snapshot().RDMAVerbs()
	vals, found, err := ht.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	groupVerbs := st.Snapshot().RDMAVerbs() - verbsBefore

	for i, k := range keys {
		wv, wf, err := ht.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if wf != found[i] || !bytes.Equal(wv, vals[i]) {
			t.Fatalf("key %d: GetMulti (%q,%v) != Get (%q,%v)", k, vals[i], found[i], wv, wf)
		}
	}
	seqVerbs := st.Snapshot().RDMAVerbs() - verbsBefore - groupVerbs
	if groupVerbs >= seqVerbs {
		t.Fatalf("GetMulti paid %d round trips, sequential Gets paid %d — no batching happened", groupVerbs, seqVerbs)
	}
	if st.DoorbellGroups.Load() == 0 || st.PostedVerbs.Load() == 0 {
		t.Fatal("pipelined multi-get must post WRs and ring doorbells")
	}
}

// TestBPTreeScanPipelined checks the batched leaf-blob fetch against the
// tree's Get path and pins the round-trip saving.
func TestBPTreeScanPipelined(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR().WithPipeline(16))
	bt, err := CreateBPTree(c, "bmg", Options{Create: testCreate, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := bt.Put(uint64(i*2), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Drain(); err != nil {
		t.Fatal(err)
	}

	st := c.Frontend().Stats()
	before := st.Snapshot().RDMAVerbs()
	keys, vals, err := bt.Scan(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	scanVerbs := st.Snapshot().RDMAVerbs() - before
	if len(keys) != 50 {
		t.Fatalf("scan returned %d keys, want 50", len(keys))
	}
	for i, k := range keys {
		if k < 100 || (i > 0 && keys[i-1] >= k) {
			t.Fatalf("scan keys out of range/order at %d: %v", i, keys[:i+1])
		}
		want, found, err := bt.Get(k)
		if err != nil || !found {
			t.Fatalf("Get(%d): %v found=%v", k, err, found)
		}
		if !bytes.Equal(vals[i], want) {
			t.Fatalf("scan value for key %d = %q, want %q", k, vals[i], want)
		}
	}
	// 50 blob reads + a handful of node reads; without batching this is
	// >50 round trips, with depth 16 the blobs cost ~2 groups per leaf.
	if scanVerbs > 30 {
		t.Fatalf("pipelined scan paid %d round trips for 50 values, batching is not engaging", scanVerbs)
	}
}

// BenchmarkBSTGetMultiLarge looks up 4096-key batches (serve's multi-get
// ceiling) in one unpartitioned tree, so every round deduplicates
// thousands of cursors.
func BenchmarkBSTGetMultiLarge(b *testing.B) {
	const keys, batch = 16384, 4096
	bk, err := backend.New(nvm.NewDevice(256<<20), backend.Options{Profile: &zprof})
	if err != nil {
		b.Fatal(err)
	}
	bk.Start()
	defer bk.Stop()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: core.ModeRCB(1<<20, 16).WithPipeline(16), Profile: &zprof})
	c, err := fe.Connect(bk)
	if err != nil {
		b.Fatal(err)
	}
	t, err := CreateBST(c, "large", Options{Create: testCreate, ValueCap: 16})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range rng.Perm(keys) {
		if err := t.Put(uint64(k+1), val(k+1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := t.Drain(); err != nil {
		b.Fatal(err)
	}
	q := make([]uint64, batch)
	for i := range q {
		q[i] = uint64(rng.Intn(keys) + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, found, err := t.GetMulti(q)
		if err != nil {
			b.Fatal(err)
		}
		if !found[0] || !bytes.Equal(vals[0], val(int(q[0]))) {
			b.Fatalf("key %d: got %q", q[0], vals[0])
		}
	}
}
