package ds

import (
	"bytes"
	"fmt"
	"testing"

	"asymnvm/internal/core"
)

// Node decoding aliases the read buffer, and posted multi-get rounds
// reuse each handle's result arena, so every value handed to a caller
// must be the caller's own copy. These tests take values, run more
// reads and writes on the same structure, and check the values taken
// earlier did not change underneath.

// aliasMode caches, batches and pipelines, so reads come from the cache,
// the writer's overlay and posted rounds alike.
var aliasMode = core.ModeRCB(1<<20, 4).WithPipeline(16)

func aliasVal(i, gen int) []byte { return []byte(fmt.Sprintf("gen%d-value-%06d", gen, i)) }

// checkKept compares values taken earlier against what they held then.
func checkKept(t *testing.T, what string, keys []uint64, got, want [][]byte) {
	t.Helper()
	for i, k := range keys {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: value of key %d changed to %q after later calls, was %q", what, k, got[i], want[i])
		}
	}
}

func snapshot(vals [][]byte) [][]byte {
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = append([]byte(nil), v...)
	}
	return out
}

func TestGetValuesSurviveLaterCalls(t *testing.T) {
	type getMultiKV interface {
		KV
		GetMulti(keys []uint64) ([][]byte, []bool, error)
	}
	const n = 300
	r := newRig(t)
	c := r.conn(1, aliasMode)
	bst, err := CreateBST(c, "abst", Options{Create: testCreate, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	ht, err := CreateHashTable(c, "aht", Options{Create: testCreate, Buckets: 32, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	for name, kv := range map[string]getMultiKV{"bst": bst, "hashtable": ht} {
		for i := 1; i <= n; i++ {
			if err := kv.Put(uint64(i*7919%n+1), aliasVal(i*7919%n+1, 0)); err != nil {
				t.Fatal(err)
			}
		}
		keys := []uint64{1, 17, 150, 299}
		got := make([][]byte, len(keys))
		for i, k := range keys {
			v, ok, err := kv.Get(k)
			if err != nil || !ok {
				t.Fatalf("%s: Get(%d) = %v, %v", name, k, ok, err)
			}
			got[i] = v
		}
		want := snapshot(got)
		others := []uint64{2, 18, 151, 298, 17, 1}
		if _, _, err := kv.GetMulti(others); err != nil {
			t.Fatal(err)
		}
		for _, k := range append(others, keys...) {
			if err := kv.Put(k, aliasVal(int(k), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := kv.GetMulti(keys); err != nil {
			t.Fatal(err)
		}
		checkKept(t, name+" Get", keys, got, want)
	}
}

func TestPartitionedGetMultiValuesSurviveLaterCalls(t *testing.T) {
	for _, kind := range []KVKind{KindBST, KindHashTable} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			conns, _ := fanoutRig(t, 2, aliasMode)
			p, err := CreatePartitioned(conns, kind, "alias", 4,
				Options{Create: testCreate, Buckets: 64, ValueCap: 64})
			if err != nil {
				t.Fatal(err)
			}
			const n = 400
			var all []uint64
			var vals [][]byte
			for i := 1; i <= n; i++ {
				k := uint64(i * 2654435761)
				all = append(all, k)
				vals = append(vals, aliasVal(i, 0))
			}
			if err := p.PutMulti(all, vals); err != nil {
				t.Fatal(err)
			}
			if err := p.DrainAll(); err != nil {
				t.Fatal(err)
			}
			keys := all[:32]
			got, found, err := p.GetMulti(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if !found[i] || !bytes.Equal(got[i], vals[i]) {
					t.Fatalf("key %d: GetMulti (%q,%v), want %q", keys[i], got[i], found[i], vals[i])
				}
			}
			want := snapshot(got)
			// Later rounds on the same handles: other keys, then new
			// values for the same keys, then the same keys again.
			if _, _, err := p.GetMulti(all[32:96]); err != nil {
				t.Fatal(err)
			}
			next := make([][]byte, len(keys))
			for i := range keys {
				next[i] = aliasVal(i+1, 1)
			}
			if err := p.PutMulti(keys, next); err != nil {
				t.Fatal(err)
			}
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			again, _, err := p.GetMulti(keys)
			if err != nil {
				t.Fatal(err)
			}
			checkKept(t, "Partitioned.GetMulti", keys, got, want)
			checkKept(t, "Partitioned.GetMulti after PutMulti", keys, again, next)
		})
	}
}
