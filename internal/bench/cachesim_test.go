package bench

import (
	"testing"

	"asymnvm/internal/core"
	"asymnvm/internal/stats"
	"asymnvm/internal/workload"
)

// cacheMatrixGolden pins the exact hit, miss and eviction counts of every
// replacement policy over a Zipf key stream (120,000 lookups of 64 B
// entries, seed 21). The counts are a function of the cache's eviction
// decisions alone — the policy's rng draws over the sampling order — so
// any change to the cache that moves a single decision moves a count.
var cacheMatrixGolden = []struct {
	theta              float64
	keys               uint64
	capacity           int64
	policy             string
	hits, miss, evicts int64
}{
	{0.7, 160000, 1048576, "H", 42994, 77006, 60622},
	{0.7, 160000, 1048576, "L", 43033, 76967, 60583},
	{0.7, 160000, 1048576, "R", 39991, 80009, 63625},
	{0.7, 160000, 262144, "H", 22550, 97450, 93354},
	{0.7, 160000, 262144, "L", 22556, 97444, 93348},
	{0.7, 160000, 262144, "R", 20157, 99843, 95747},
	{0.7, 500000, 1048576, "H", 26089, 93911, 77527},
	{0.7, 500000, 1048576, "L", 26113, 93887, 77503},
	{0.7, 500000, 1048576, "R", 24080, 95920, 79536},
	{0.7, 500000, 262144, "H", 13548, 106452, 102356},
	{0.7, 500000, 262144, "L", 13537, 106463, 102367},
	{0.7, 500000, 262144, "R", 11965, 108035, 103939},
	{0.9, 160000, 1048576, "H", 72433, 47567, 31183},
	{0.9, 160000, 1048576, "L", 72472, 47528, 31144},
	{0.9, 160000, 1048576, "R", 69661, 50339, 33955},
	{0.9, 160000, 262144, "H", 54719, 65281, 61185},
	{0.9, 160000, 262144, "L", 54745, 65255, 61159},
	{0.9, 160000, 262144, "R", 50447, 69553, 65457},
	{0.9, 500000, 1048576, "H", 59076, 60924, 44540},
	{0.9, 500000, 1048576, "L", 59074, 60926, 44542},
	{0.9, 500000, 1048576, "R", 55953, 64047, 47663},
	{0.9, 500000, 262144, "H", 44341, 75659, 71563},
	{0.9, 500000, 262144, "L", 44363, 75637, 71541},
	{0.9, 500000, 262144, "R", 40642, 79358, 75262},
	{0.99, 160000, 1048576, "H", 85853, 34147, 17763},
	{0.99, 160000, 1048576, "L", 85890, 34110, 17726},
	{0.99, 160000, 1048576, "R", 84038, 35962, 19578},
	{0.99, 160000, 262144, "H", 72215, 47785, 43689},
	{0.99, 160000, 262144, "L", 72200, 47800, 43704},
	{0.99, 160000, 262144, "R", 68157, 51843, 47747},
	{0.99, 500000, 1048576, "H", 76586, 43414, 27030},
	{0.99, 500000, 1048576, "L", 76585, 43415, 27031},
	{0.99, 500000, 1048576, "R", 74299, 45701, 29317},
	{0.99, 500000, 262144, "H", 64166, 55834, 51738},
	{0.99, 500000, 262144, "L", 64134, 55866, 51770},
	{0.99, 500000, 262144, "R", 60178, 59822, 55726},
}

func TestCacheMatrix(t *testing.T) {
	policies := map[string]core.Policy{"H": core.PolicyHybrid, "L": core.PolicyLRU, "R": core.PolicyRR}
	for _, g := range cacheMatrixGolden {
		st := &stats.Stats{}
		c := core.NewCache(g.capacity, policies[g.policy], st)
		gen := workload.New(workload.Config{Seed: 21, Keys: g.keys, WritePct: 0, Theta: g.theta, Scramble: true})
		e := make([]byte, 64)
		for i := 0; i < 120000; i++ {
			k := gen.Next().Key
			if _, ok := c.Get(k, core.EpochAlways, true); !ok {
				c.Put(k, e, 0, core.EpochAlways)
			}
		}
		s := st.Snapshot()
		if s.CacheHit != g.hits || s.CacheMiss != g.miss || s.CacheEvict != g.evicts {
			t.Errorf("theta=%.2f keys=%d cap=%d %s: hits/miss/evicts %d/%d/%d, want %d/%d/%d",
				g.theta, g.keys, g.capacity, g.policy, s.CacheHit, s.CacheMiss, s.CacheEvict, g.hits, g.miss, g.evicts)
		}
	}
}
