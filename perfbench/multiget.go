package main

import (
	"fmt"
	"math/rand"
	"time"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/workload"
)

// multiget-cold: a partitioned BST far larger than the front-end cache.
// Two back-ends, each with one replica mirror; four BST partitions
// holding 64 Ki keys × 512 B (about 38 MiB of NVM) against a 4 MiB
// cache; in-process calls, 70% GetMulti(16) and 30% PutMulti(16) plus
// FlushAll over uniform keys, RCB with group commit of 16 ops.
const (
	coldKeys     = 64 << 10
	coldValLen   = 512
	coldParts    = 4
	coldBatch    = 16
	coldPutPct   = 30
	coldDevBytes = 96 << 20
	coldFillStep = 256 // keys per PutMulti+FlushAll during population
)

type multigetCold struct {
	cl    *cluster.Cluster
	fe    *core.Frontend
	p     *ds.Partitioned
	model *model
	newS  float64
	vals  [][]byte
}

func setupMultigetCold(cfg runConfig) (instance, error) {
	w := &multigetCold{model: newModel(coldKeys, coldValLen)}
	for i := 0; i < coldFillStep; i++ {
		w.vals = append(w.vals, make([]byte, coldValLen))
	}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	ccfg := cluster.DefaultConfig()
	ccfg.Backends = 2
	ccfg.MirrorsPerBack = 1
	ccfg.DeviceBytes = coldDevBytes
	ccfg.Tracer = cfg.tracer
	t0 := time.Now()
	cl, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	w.cl, w.newS = cl, time.Since(t0).Seconds()
	fe, conns, err := cl.NewFrontend(1, core.Mode{OpLog: true, Batch: coldBatch, Pipeline: 16, CacheBytes: 4 << 20})
	if err != nil {
		return nil, err
	}
	w.fe = fe
	opts := ds.Options{ValueCap: coldValLen, Create: core.CreateOptions{MemLogSize: 8 << 20, OpLogSize: 2 << 20}}
	if w.p, err = ds.CreatePartitioned(conns, ds.KindBST, "cold", coldParts, opts); err != nil {
		return nil, err
	}
	// An unbalanced BST needs a random insertion order; a seeded
	// permutation keeps the tree shape a function of the seed.
	perm := rand.New(rand.NewSource(cfg.seed ^ 0x5eed)).Perm(coldKeys)
	keys := make([]uint64, 0, coldFillStep)
	for i, k := range perm {
		keys = append(keys, uint64(k)+1)
		if len(keys) == coldFillStep || i == len(perm)-1 {
			if err := w.putBatch(keys); err != nil {
				return nil, fmt.Errorf("populate: %w", err)
			}
			keys = keys[:0]
		}
	}
	if err := w.p.DrainAll(); err != nil {
		return nil, err
	}
	for b := range cl.Backends {
		cl.SyncMirrors(b)
	}
	ok = true
	return w, nil
}

// putBatch writes one batch and commits it with FlushAll; the model
// adopts the values only once FlushAll acknowledges them.
func (w *multigetCold) putBatch(keys []uint64) error {
	vers := make([]uint32, len(keys))
	vals := w.vals[:len(keys)]
	for i, k := range keys {
		vers[i] = w.model.stage(vals[i], k)
	}
	if err := w.p.PutMulti(keys, vals); err != nil {
		return err
	}
	if err := w.p.FlushAll(); err != nil {
		return err
	}
	for i, k := range keys {
		w.model.ack(k, vers[i])
	}
	return nil
}

func (w *multigetCold) targets() targets {
	t := targets{fes: []*core.Frontend{w.fe}, bks: w.cl.Backends}
	for b, reps := range w.cl.Mirrors {
		t.devs = append(t.devs, w.cl.Device(b))
		for _, r := range reps {
			t.reps = append(t.reps, r)
			t.devs = append(t.devs, r.Device())
		}
	}
	return t
}

func (w *multigetCold) measure(cfg runConfig) (*measurement, error) {
	w.model.corruptNext = cfg.corruptModel
	m := &measurement{probe: newProbe(cfg.ledger, 8), layer: map[string]float64{}}
	kinds := workload.New(workload.Config{Seed: cfg.seed, Keys: coldKeys, WritePct: coldPutPct, ValueLen: coldValLen})
	keyRng := rand.New(rand.NewSource(cfg.seed ^ 0xc01d))
	keyDist := workload.Uniform{Keys: coldKeys}
	keys := make([]uint64, coldBatch)
	calls := callSamples{}
	clk := w.fe.Clock()
	sp := cfg.spans
	var putBytes int64
	hm := markHost()
	m.probe.start(w.targets())
	t0, v0 := time.Now(), clk.Now()
	for n := 0; !cfg.over(n, time.Since(t0)); n++ {
		put := kinds.Next().Kind == workload.OpPut
		for i := range keys {
			keys[i] = keyDist.Next(keyRng)
		}
		name := "ds.getmulti"
		if put {
			name = "ds.putmulti"
		}
		root := sp.begin("batch", -1, uint64(n))
		h0, c0 := time.Now(), clk.Now()
		good := true
		if put {
			call := sp.begin("ds.Partitioned.PutMulti+FlushAll", root, uint64(n))
			if err := w.putBatch(keys); err != nil {
				good = false
			}
			sp.end(call)
			putBytes += coldBatch * (8 + coldValLen)
		} else {
			call := sp.begin("ds.Partitioned.GetMulti", root, uint64(n))
			vals, founds, err := w.p.GetMulti(keys)
			sp.end(call)
			chk := sp.begin("bench.check", root, uint64(n))
			good = err == nil
			for i := 0; good && i < len(keys); i++ {
				good = w.model.check(keys[i], vals[i], founds[i])
			}
			sp.end(chk)
		}
		c1, h1 := clk.Now(), time.Now()
		sp.end(root)
		if !good {
			m.failed++
		}
		m.record(int64(h1.Sub(h0)), int64(c1-c0), h1.Sub(t0))
		calls.add(name, int64(h1.Sub(h0)), int64(c1-c0))
		m.probe.tick()
	}
	m.wall, m.virt = time.Since(t0), clk.Now()-v0
	m.probe.stop()
	m.host = markHost().since(hm)
	if cfg.ledger {
		if err := w.p.DrainAll(); err != nil {
			return nil, err
		}
		s0 := time.Now()
		for b := range w.cl.Backends {
			w.cl.SyncMirrors(b)
		}
		m.layer["mirror.sync_ms"] = float64(time.Since(s0).Microseconds()) / 1e3
	}
	calls.report(m.layer)
	m.nvmBytes = allocatedNVM(w.cl.Backends)
	m.userBytes = w.model.liveUserBytes()
	m.layer["user_bytes_written"] = float64(putBytes)
	m.layer["cluster.new_s"] = w.newS
	m.layer["nvm.device_mb"] = float64(len(w.targets().devs)) * coldDevBytes / (1 << 20)
	return m, nil
}

func (w *multigetCold) close() {
	if w.cl != nil {
		w.cl.Stop()
	}
}
