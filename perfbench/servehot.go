package main

import (
	"fmt"
	"math/rand"
	"time"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/nvm"
	"asymnvm/internal/serve"
	"asymnvm/internal/txapp"
	"asymnvm/internal/workload"
)

// serve-hot: the asymnvm-serve cell. One back-end (default 256 MiB
// device, no mirror), one front-end in RCB mode with group commit of 4
// ops and an 8 MiB cache, a 16 Ki-key × 64 B hash table and a
// 400-account SmallBank served by serve.Server over loopback TCP, driven
// by one closed-loop serve.Client: 60% Get, 30% Put, 10% Tx, Zipf 0.9.
const (
	hotKeys     = 16 << 10
	hotValLen   = 64
	hotAccounts = 400
	hotWarmOps  = 20000 // cold-fill of the cache before measuring
	hotTxPct    = 10
	// hotPutPct is the Put share of the non-Tx ops: 33% of 90% ≈ 30%.
	hotPutPct = 33
)

type serveHot struct {
	cl    *cluster.Cluster
	fe    *core.Frontend
	kv    *ds.HashTable
	bank  *txapp.SmallBank
	srv   *serve.Server
	cli   *serve.Client
	model *model
	newS  float64
	val   []byte
}

// hotOp is one generated serve-hot request.
type hotOp struct {
	op  uint8 // serve.OpGet, OpPut or OpTx
	key uint64
	txr uint64
}

// hotStream is the seed-determined serve-hot op stream: keys and the
// Get/Put choice come from internal/workload, the Tx draw and its
// selector from a second seeded source.
type hotStream struct {
	gen *workload.Generator
	tx  *rand.Rand
}

func newHotStream(seed int64) *hotStream {
	return &hotStream{
		gen: workload.New(workload.Config{Seed: seed, Keys: hotKeys, WritePct: hotPutPct, Theta: 0.9, ValueLen: hotValLen}),
		tx:  rand.New(rand.NewSource(seed ^ 0x7e57ab1e)),
	}
}

func (s *hotStream) next() hotOp {
	if s.tx.Intn(100) < hotTxPct {
		return hotOp{op: serve.OpTx, txr: s.tx.Uint64()}
	}
	o := s.gen.Next()
	if o.Kind == workload.OpPut {
		return hotOp{op: serve.OpPut, key: o.Key}
	}
	return hotOp{op: serve.OpGet, key: o.Key}
}

func setupServeHot(cfg runConfig) (instance, error) {
	w := &serveHot{model: newModel(hotKeys, hotValLen), val: make([]byte, hotValLen)}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	ccfg := cluster.DefaultConfig()
	ccfg.Tracer = cfg.tracer
	t0 := time.Now()
	cl, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	w.cl, w.newS = cl, time.Since(t0).Seconds()
	fe, conns, err := cl.NewFrontend(1, core.Mode{OpLog: true, Batch: 4, Pipeline: 8, CacheBytes: 8 << 20})
	if err != nil {
		return nil, err
	}
	w.fe = fe
	opts := ds.Options{ValueCap: hotValLen, Buckets: hotKeys, Create: core.CreateOptions{MemLogSize: 32 << 20, OpLogSize: 8 << 20}}
	if w.kv, err = ds.CreateHashTable(conns[0], "hot-kv", opts); err != nil {
		return nil, err
	}
	bankOpts := opts
	bankOpts.Buckets = 1 << 10
	if w.bank, err = txapp.NewSmallBank(conns[0], "hot-bank", hotAccounts, bankOpts); err != nil {
		return nil, err
	}
	for k := uint64(1); k <= hotKeys; k++ {
		ver := w.model.stage(w.val, k)
		if err := w.kv.Put(k, w.val); err != nil {
			return nil, fmt.Errorf("populate key %d: %w", k, err)
		}
		w.model.ack(k, ver)
	}
	if err := w.kv.Drain(); err != nil {
		return nil, err
	}
	if err := w.bank.Table().Drain(); err != nil {
		return nil, err
	}
	w.srv = serve.New(serve.Backends{FE: fe, KV: w.kv, Bank: w.bank}, serve.DefaultOptions())
	if err := w.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if w.cli, err = serve.Dial(w.srv.Addr().String(), 1); err != nil {
		return nil, err
	}
	warm := newHotStream(cfg.seed ^ 0x3a3a3a3a)
	for i := 0; i < hotWarmOps; i++ {
		if !w.doServed(warm.next()) {
			return nil, fmt.Errorf("warm-up op %d failed its check", i)
		}
	}
	ok = true
	return w, nil
}

// request builds the wire request for o, staging a fresh value for a Put.
func (w *serveHot) request(o hotOp) (serve.Request, uint32) {
	switch o.op {
	case serve.OpPut:
		ver := w.model.stage(w.val, o.key)
		return serve.Request{Op: serve.OpPut, Key: o.key, Val: w.val}, ver
	case serve.OpTx:
		return serve.Request{Op: serve.OpTx, TxR: o.txr}, 0
	default:
		return serve.Request{Op: serve.OpGet, Key: o.key}, 0
	}
}

// doServed sends one op through the client and checks the answer.
func (w *serveHot) doServed(o hotOp) bool {
	req, ver := w.request(o)
	resp, err := w.cli.Do(req)
	return w.checkServed(o, ver, resp, err)
}

// checkServed: every status must be StatusOK, and a Get must return the
// last acknowledged Put of its key.
func (w *serveHot) checkServed(o hotOp, ver uint32, resp serve.Response, err error) bool {
	if err != nil || resp.Status != serve.StatusOK {
		return false
	}
	switch o.op {
	case serve.OpPut:
		w.model.ack(o.key, ver)
	case serve.OpGet:
		return w.model.check(o.key, resp.Val, resp.Found)
	}
	return true
}

func (w *serveHot) measure(cfg runConfig) (*measurement, error) {
	w.model.corruptNext = cfg.corruptModel
	m := &measurement{probe: newProbe(cfg.ledger, 64), layer: map[string]float64{}}
	tg := targets{fes: []*core.Frontend{w.fe}, bks: w.cl.Backends, devs: []*nvm.Device{w.cl.Device(0)}}
	st := newHotStream(cfg.seed)
	clk := w.fe.Clock()
	sp := cfg.spans
	var putBytes int64
	hm := markHost()
	m.probe.start(tg)
	t0, v0 := time.Now(), clk.Now()
	for n := 0; !cfg.over(n, time.Since(t0)); n++ {
		o := st.next()
		req, ver := w.request(o)
		root := sp.begin("request", -1, uint64(n))
		call := sp.begin("serve.Client.Do", root, uint64(n))
		h0, c0 := time.Now(), clk.Now()
		resp, err := w.cli.Do(req)
		c1, h1 := clk.Now(), time.Now()
		sp.end(call)
		chk := sp.begin("bench.check", root, uint64(n))
		if !w.checkServed(o, ver, resp, err) {
			m.failed++
		}
		sp.end(chk)
		sp.end(root)
		if o.op == serve.OpPut {
			putBytes += 8 + hotValLen
		}
		m.record(int64(h1.Sub(h0)), int64(c1-c0), h1.Sub(t0))
		m.probe.tick()
	}
	m.wall, m.virt = time.Since(t0), clk.Now()-v0
	m.probe.stop()
	m.host = markHost().since(hm)
	m.nvmBytes = allocatedNVM(w.cl.Backends)
	m.userBytes = w.model.liveUserBytes() + 2*hotAccounts*(8+8)
	m.layer["user_bytes_written"] = float64(putBytes)
	m.layer["cluster.new_s"] = w.newS
	m.layer["nvm.device_mb"] = float64(cluster.DefaultConfig().DeviceBytes) / (1 << 20)
	if cfg.ledger {
		w.directTwin(cfg, m)
	}
	return m, nil
}

// directTwin replays the same request stream straight on the structures,
// with the server closed, to split serve's own per-request host time
// from the structures' (serve.Calibrate's method, on host time).
func (w *serveHot) directTwin(cfg runConfig, m *measurement) {
	w.srv.Close() // the structures are the caller's again
	st := newHotStream(cfg.seed)
	clk := w.fe.Clock()
	calls := callSamples{}
	var all []int64
	limit := cfg.budget / 4
	t0 := time.Now()
	for n := 0; n < m.attempted && (cfg.ops > 0 || time.Since(t0) < limit); n++ {
		o := st.next()
		h0, c0 := time.Now(), clk.Now()
		var name string
		var good bool
		switch o.op {
		case serve.OpPut:
			name = "ds.put"
			ver := w.model.stage(w.val, o.key)
			err := w.kv.Put(o.key, w.val)
			if good = err == nil; good {
				w.model.ack(o.key, ver)
			}
		case serve.OpTx:
			name = "txapp.tx"
			good = w.bank.DoTx(o.txr) == nil
		default:
			name = "ds.get"
			v, found, err := w.kv.Get(o.key)
			good = err == nil && w.model.check(o.key, v, found)
		}
		c1, h1 := clk.Now(), time.Now()
		calls.add(name, int64(h1.Sub(h0)), int64(c1-c0))
		all = append(all, int64(h1.Sub(h0)))
		m.extraOps++
		if !good {
			m.failed++
		}
	}
	calls.report(m.layer)
	m.layer["serve.self_us"] = quantileUS(m.hostNS, 0.5) - quantileUS(all, 0.5)
}

func (w *serveHot) close() {
	if w.cli != nil {
		w.cli.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.cl != nil {
		w.cl.Stop()
	}
}
