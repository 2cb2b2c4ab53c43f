package main

import (
	"fmt"
	"runtime"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/nvm"
	"asymnvm/internal/workload"
)

// churn-recover: write churn with compaction, broken by power failures.
// One back-end with lazy apply and a checkpoint every 256 KiB of applied
// log, no mirror; a hash table over an 8 Ki-key domain of 64 B values;
// the front-end in ModeR with an 8-deep pipeline, so each put is
// acknowledged once its op log is durable. After every burst the
// benchmark flushes, power-fails and restarts the back-end, opens a new
// front-end over it and reads every key back against its model.
const (
	churnKeys       = 8 << 10
	churnValLen     = 64
	churnBurst      = 2048 // puts between power failures
	churnYieldEvery = 256  // puts between yields to the back-end replayer
	churnDevBytes   = 64 << 20
	churnInterval   = 256 << 10 // checkpoint interval, applied log bytes
	churnName       = "churn"
)

var churnMode = core.Mode{OpLog: true, Batch: 1, Pipeline: 8}

var churnOpts = ds.Options{ValueCap: churnValLen, Buckets: churnKeys, Create: core.CreateOptions{MemLogSize: 4 << 20, OpLogSize: 2 << 20}}

type churnRecover struct {
	cl    *cluster.Cluster
	fe    *core.Frontend
	feID  uint16
	ht    *ds.HashTable
	model *model
	newS  float64
	val   []byte
}

func setupChurnRecover(cfg runConfig) (instance, error) {
	w := &churnRecover{model: newModel(churnKeys, churnValLen), val: make([]byte, churnValLen), feID: 1}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	ccfg := cluster.DefaultConfig()
	ccfg.DeviceBytes = churnDevBytes
	ccfg.Compact = &backend.CompactConfig{Interval: churnInterval}
	ccfg.Tracer = cfg.tracer
	t0 := time.Now()
	cl, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	w.cl, w.newS = cl, time.Since(t0).Seconds()
	fe, conns, err := cl.NewFrontend(w.feID, churnMode)
	if err != nil {
		return nil, err
	}
	w.fe = fe
	if w.ht, err = ds.CreateHashTable(conns[0], churnName, churnOpts); err != nil {
		return nil, err
	}
	for k := uint64(1); k <= churnKeys; k++ {
		ver := w.model.stage(w.val, k)
		if err := w.ht.Put(k, w.val); err != nil {
			return nil, fmt.Errorf("populate key %d: %w", k, err)
		}
		w.model.ack(k, ver)
	}
	if err := w.ht.Drain(); err != nil {
		return nil, err
	}
	ok = true
	return w, nil
}

func (w *churnRecover) targets() targets {
	return targets{fes: []*core.Frontend{w.fe}, bks: w.cl.Backends, devs: []*nvm.Device{w.cl.Device(0)}}
}

// restart power-fails the back-end, restarts it on the same NVM and
// reopens the table from a new front-end that breaks the dead writer's
// lock; ReplayPending inside OpenHashTable re-executes acknowledged ops
// the crash left unapplied.
func (w *churnRecover) restart(sp *spanLog, parent int32, cycle uint64, layer *churnLayer) error {
	s := sp.begin("cluster.RestartBackend", parent, cycle)
	r0 := time.Now()
	bk, _, err := w.cl.RestartBackend(0, true)
	layer.restartMS = append(layer.restartMS, float64(time.Since(r0).Microseconds())/1e3)
	sp.end(s)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	layer.recoveryUS = append(layer.recoveryUS, float64(bk.Clock().Now().Nanoseconds())/1e3)
	layer.recoveryOps = append(layer.recoveryOps, float64(bk.Stats().RecoveryReplayOps.Load()))

	s = sp.begin("reopen", parent, cycle)
	o0 := time.Now()
	dead := w.feID
	w.feID = 3 - w.feID // alternate between front-end ids 1 and 2
	fe, conns, err := w.cl.NewFrontend(w.feID, churnMode)
	if err != nil {
		return fmt.Errorf("new front-end: %w", err)
	}
	raw, err := conns[0].Open(churnName, true)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if err := raw.BreakLock(dead); err != nil {
		return fmt.Errorf("break lock: %w", err)
	}
	ht, err := ds.OpenHashTable(conns[0], churnName, true, churnOpts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	layer.reopenMS = append(layer.reopenMS, float64(time.Since(o0).Microseconds())/1e3)
	sp.end(s)
	w.fe, w.ht = fe, ht
	return nil
}

// churnLayer collects the per-restart figures.
type churnLayer struct {
	restartMS, reopenMS, recoveryUS, recoveryOps []float64
}

// verify reads every key back and counts mismatches against the model.
func (w *churnRecover) verify(calls callSamples) int {
	bad := 0
	clk := w.fe.Clock()
	for k := uint64(1); k <= churnKeys; k++ {
		h0, c0 := time.Now(), clk.Now()
		v, found, err := w.ht.Get(k)
		calls.add("ds.get", int64(time.Since(h0)), int64(clk.Now()-c0))
		if err != nil || !w.model.check(k, v, found) {
			bad++
		}
	}
	return bad
}

func (w *churnRecover) measure(cfg runConfig) (*measurement, error) {
	w.model.corruptNext = cfg.corruptModel
	m := &measurement{probe: newProbe(cfg.ledger, 64), layer: map[string]float64{}}
	gen := workload.New(workload.Config{Seed: cfg.seed, Keys: churnKeys, WritePct: 100, ValueLen: churnValLen})
	calls := callSamples{}
	var layer churnLayer
	sp := cfg.spans
	hm := markHost()
	n := 0
	for cycle := uint64(0); !cfg.over(n, m.wall); cycle++ {
		root := sp.begin("cycle", -1, cycle)
		seg := time.Now()
		clk := w.fe.Clock()
		m.probe.start(w.targets())
		v0 := clk.Now()
		for i := 0; i < churnBurst && !cfg.over(n, m.wall+time.Since(seg)); i++ {
			key := gen.Next().Key
			ver := w.model.stage(w.val, key)
			s := sp.begin("ds.HashTable.Put", root, uint64(n))
			h0, c0 := time.Now(), clk.Now()
			err := w.ht.Put(key, w.val)
			c1, h1 := clk.Now(), time.Now()
			sp.end(s)
			if err != nil {
				m.failed++
			} else {
				w.model.ack(key, ver)
			}
			m.record(int64(h1.Sub(h0)), int64(c1-c0), m.wall+h1.Sub(seg))
			calls.add("ds.put", int64(h1.Sub(h0)), int64(c1-c0))
			n++
			m.probe.tick()
			// On the benchmark's one Go processor the back-end replayer
			// runs only when this client yields. Yielding every
			// churnYieldEvery puts lets replay keep pace with the puts at
			// points fixed by the op count. Left to the scheduler's 10 ms
			// preemption, whether a burst ended inside one tick decided
			// whether replay ran during it at all, and runs were bimodal
			// (host p50 4.3-5.8 us against 6.5-7.5 us).
			if n%churnYieldEvery == 0 {
				runtime.Gosched()
			}
		}
		s := sp.begin("ds.HashTable.Flush", root, cycle)
		if err := w.ht.Flush(); err != nil {
			return nil, fmt.Errorf("flush: %w", err)
		}
		sp.end(s)
		m.virt += clk.Now() - v0
		m.probe.stop()
		if err := w.restart(sp, root, cycle, &layer); err != nil {
			return nil, err
		}
		m.wall += time.Since(seg)
		s = sp.begin("bench.verify", root, cycle)
		m.failed += w.verify(calls)
		sp.end(s)
		sp.end(root)
	}
	m.host = markHost().since(hm)
	calls.report(m.layer)
	m.nvmBytes = allocatedNVM(w.cl.Backends)
	m.userBytes = w.model.liveUserBytes()
	m.layer["user_bytes_written"] = float64(m.attempted * (8 + churnValLen))
	m.layer["cluster.new_s"] = w.newS
	m.layer["nvm.device_mb"] = churnDevBytes / (1 << 20)
	m.layer["cluster.restart_ms"] = quantile(layer.restartMS, 0.5)
	m.layer["cluster.reopen_ms"] = quantile(layer.reopenMS, 0.5)
	m.layer["backend.recovery_virt_us"] = quantile(layer.recoveryUS, 0.5)
	m.layer["backend.recovery_replay_ops"] = quantile(layer.recoveryOps, 0.5)
	return m, nil
}

func (w *churnRecover) close() {
	if w.cl != nil {
		w.cl.Stop()
	}
}
