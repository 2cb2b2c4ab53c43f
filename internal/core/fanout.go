package core

import (
	"asymnvm/internal/logrec"
	"asymnvm/internal/rdma"
	"asymnvm/internal/trace"
)

// Cross-backend fan-out orchestration: the handle-level posted variants
// of ReadMulti and Flush. A caller holding handles on several back-ends
// brackets a scatter/gather episode with Frontend.BeginFanout, posts work
// on every connection (PostReadMulti / FlushAsync), and only then settles
// the pending results — so the doorbell groups on the different links fly
// concurrently and the episode costs max-over-backends instead of
// sum-over-backends. The fault story is unchanged: completions surface
// per connection, and a faulted group is re-driven synchronously through
// the connection's retry/failover policy, exactly like the async op-log
// flush settled at EndOp.

// Fanout brackets a cross-backend fan-out accounting window (see
// rdma/fanout.go). A zero Fanout is valid and inert.
type Fanout struct {
	w *rdma.FanoutWindow
}

// BeginFanout opens a fan-out window over the given connections'
// endpoints (duplicates and nils are skipped). All connections must
// belong to this front-end — they share its virtual clock.
func (fe *Frontend) BeginFanout(conns ...*Conn) *Fanout {
	var eps []*rdma.Endpoint
	seen := make(map[*rdma.Endpoint]bool, len(conns))
	for _, c := range conns {
		if c == nil || seen[c.ep] {
			continue
		}
		seen[c.ep] = true
		eps = append(eps, c.ep)
	}
	return &Fanout{w: rdma.BeginFanout(fe.st, eps...)}
}

// End closes the window and credits the cross-connection savings.
func (f *Fanout) End() {
	if f != nil {
		f.w.End()
	}
}

// PendingReads is an in-flight multi-get posted by PostReadMulti. Its
// results become valid only after Settle returns nil. Each handle owns
// one PendingReads and its result arena and reuses them every round, so
// a steady multi-get stream posts and settles without allocating.
type PendingReads struct {
	h         *Handle
	out       [][]byte
	arena     []byte // backs out on the pipelined path
	addrs     []uint64
	missIdx   []int
	ops       []rdma.ReadOp
	toks      []rdma.Token
	cacheable bool
	posted    bool
}

// PostReadMulti is the posted half of ReadMulti: overlay and cache hits
// are copied inline into the handle's result arena, and the misses are
// posted as one doorbell group that reads straight into the arena,
// WITHOUT waiting for completion, so the caller may post on other
// connections before settling any of them. On a connection without the
// pipeline the reads are performed synchronously and Settle just hands
// the results over. Results index-match addrs after Settle and stay
// valid only until this handle's next PostReadMulti: callers copy out
// what they keep.
func (h *Handle) PostReadMulti(addrs []uint64, n int, cacheable bool) (*PendingReads, error) {
	p := &h.reads
	p.h, p.addrs, p.cacheable, p.posted = h, addrs, cacheable, false
	p.missIdx, p.ops, p.toks = p.missIdx[:0], p.ops[:0], p.toks[:0]
	if !h.c.pipelined() {
		out, err := h.ReadMulti(addrs, n, cacheable)
		if err != nil {
			return nil, err
		}
		p.out = out
		return p, nil
	}
	fe := h.c.fe
	if need := len(addrs) * n; cap(p.arena) < need {
		p.arena = make([]byte, need)
	}
	p.out = p.out[:0]
	for i, addr := range addrs {
		buf := p.arena[i*n : (i+1)*n : (i+1)*n]
		p.out = append(p.out, buf)
		if e, err := h.overlayHit(addr, n); err != nil || e != nil {
			if err != nil {
				return nil, err
			}
			copy(buf, e.data)
			continue
		}
		if fe.cache != nil {
			if b, ok := fe.cache.Get(addr, h.readEpoch(), cacheable); ok && len(b) >= n {
				fe.clk.Advance(fe.prof.DRAMAccess)
				fe.tr.Charge(trace.KindCacheHit, fe.prof.DRAMAccess)
				copy(buf, b)
				continue
			}
		}
		off, err := h.devOff(addr)
		if err != nil {
			return nil, err
		}
		p.missIdx = append(p.missIdx, i)
		p.ops = append(p.ops, rdma.ReadOp{Off: off, Buf: buf})
	}
	if len(p.ops) == 0 {
		return p, nil
	}
	p.posted = true
	fe.tr.BeginArg(trace.KindFetch, uint64(len(p.ops)))
	for _, op := range p.ops {
		p.toks = append(p.toks, h.c.ep.PostRead(op.Off, op.Buf))
	}
	h.c.ep.Doorbell()
	fe.tr.End()
	return p, nil
}

// Settle waits the posted reads out and returns the results, which alias
// the handle's arena (see PostReadMulti). A faulted completion re-drives
// the whole miss set synchronously through the retry/failover policy —
// re-posting one-sided reads is idempotent.
func (p *PendingReads) Settle() ([][]byte, error) {
	if p == nil {
		return nil, nil
	}
	if !p.posted {
		return p.out, nil
	}
	p.posted = false
	h := p.h
	fe := h.c.fe
	var failed bool
	for _, tok := range p.toks {
		if h.c.ep.Wait(tok) != nil {
			failed = true
		}
	}
	if failed {
		fe.st.VerbRetries.Add(1)
		if err := h.c.epReadV(p.ops); err != nil {
			return nil, err
		}
	}
	for _, i := range p.missIdx {
		h.overlayFix(p.addrs[i], p.out[i])
	}
	if h.cacheOn(p.cacheable) {
		for _, i := range p.missIdx {
			fe.cache.Put(p.addrs[i], p.out[i], h.tag, h.readEpoch())
		}
	}
	return p.out, nil
}

// PendingFlush is an in-flight batch flush posted by FlushAsync. The
// handle must not run further operations until Settle returns.
type PendingFlush struct {
	h       *Handle
	toks    []rdma.Token
	groups  [][]rdma.WriteOp
	opBuf   []byte // op-log bytes owned by the in-flight WRs until Settle
	wireLen int
	hasTx   bool
	settled bool
}

// FlushAsync is the posted half of Flush: the op-log group commit and the
// pending rnvm_tx_write record are posted under one doorbell — like
// flushPipelined — but not waited for, so flushes on other back-ends can
// be posted before any of them is settled. On a connection without the
// pipeline it degrades to a synchronous Flush and returns an inert
// PendingFlush.
func (h *Handle) FlushAsync() (*PendingFlush, error) {
	if !h.writer || !h.c.fe.mode.OpLog {
		return &PendingFlush{}, nil
	}
	if !h.c.pipelined() {
		return &PendingFlush{}, h.Flush()
	}
	if err := h.settleAsyncOps(); err != nil {
		return nil, err
	}
	h.commitT0 = h.c.fe.clk.Now()
	tr := h.c.fe.tr
	tr.BeginArg(trace.KindCommit, uint64(len(h.pending)))
	defer tr.End()
	if err := h.waitOpSpace(); err != nil {
		return nil, err
	}
	pf := &PendingFlush{h: h}
	if len(h.pending) > 0 {
		rec := logrec.TxRecord{
			DSSlot:  h.slot,
			Abs:     h.memTail,
			CoverOp: h.coveredOp,
			Entries: h.pending,
		}
		// The handle runs no further operations until Settle, so the
		// shared tx scratch stays untouched while the WR is in flight.
		wire := rec.AppendTo(h.txBuf[:0])
		h.txBuf = wire
		if err := h.waitMemSpace(len(wire)); err != nil {
			return nil, err
		}
		if h.opBufCnt > 0 {
			pf.groups = append(pf.groups, h.areaWriteOps(h.opArea, h.opBufAbs, h.opBuf))
		}
		pf.groups = append(pf.groups, h.areaWriteOps(h.memArea, h.memTail, wire))
		pf.wireLen = len(wire)
		pf.hasTx = true
	} else if h.opBufCnt > 0 {
		pf.groups = append(pf.groups, h.areaWriteOps(h.opArea, h.opBufAbs, h.opBuf))
	}
	if len(pf.groups) == 0 {
		pf.settled = true
		return pf, nil
	}
	for _, g := range pf.groups {
		pf.toks = append(pf.toks, h.c.ep.PostWriteV(g))
	}
	h.c.ep.Doorbell()
	if h.opBufCnt > 0 {
		// The backing array belongs to the in-flight WR until Settle,
		// which recycles it into the handle's freelist.
		pf.opBuf = h.opBuf
		h.opBuf = h.takeBuf()
		h.opBufCnt = 0
	}
	h.c.kick()
	return pf, nil
}

// Settle waits the posted flush out and completes the commit. A faulted
// completion re-drives every group synchronously through the
// retry/failover policy — rewriting the same log bytes at the same
// offsets is idempotent, like the sync path's retry.
func (pf *PendingFlush) Settle() error {
	if pf == nil || pf.h == nil || pf.settled {
		return nil
	}
	pf.settled = true
	h := pf.h
	var failed bool
	for _, tok := range pf.toks {
		if h.c.ep.Wait(tok) != nil {
			failed = true
		}
	}
	if failed {
		h.c.fe.st.VerbRetries.Add(1)
		if err := h.c.epWriteGroups(pf.groups...); err != nil {
			return err
		}
	}
	if pf.opBuf != nil {
		h.bufFree = append(h.bufFree, pf.opBuf[:0])
		pf.opBuf = nil
	}
	if pf.hasTx {
		return h.finishTx(pf.wireLen)
	}
	h.c.kick()
	return nil
}
