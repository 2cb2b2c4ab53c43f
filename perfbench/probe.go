package main

import (
	"runtime"
	"syscall"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/mirror"
	"asymnvm/internal/nvm"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
)

// targets are the nodes a probe reads: the driving front-ends, the
// primary back-ends, the replica mirrors and every NVM device.
type targets struct {
	fes  []*core.Frontend
	bks  []*backend.Backend
	reps []*mirror.Replica
	devs []*nvm.Device
}

// probe reads the counters the program already exports, from outside:
// stats.Snapshot deltas and clock deltas between start and stop, phase
// self times, and samples of the replay lags and NVM volatile windows.
// A workload whose nodes are replaced mid-run (restarts) stops the probe
// before the swap and starts it again on the new nodes; the deltas of
// every start/stop interval accumulate.
type probe struct {
	sampleEvery int // ops between samples; 0 disables the samplers

	cur                     targets
	feBase, bkBase, repBase []stats.Snapshot
	feClk                   []time.Duration
	fePhase                 [][stats.NumPhases]int64
	feSelf                  [][trace.NumKinds]int64
	feElapsed               []int64
	fe, bk, rep             stats.Snapshot
	feVirt                  time.Duration
	nbk, nrep               int // back-ends and replicas per interval
	phases                  [stats.NumPhases]int64
	traceSelf, traceElapsed int64
	bkLag, repLag, pending  []float64
	ticks                   int
}

func newProbe(ledger bool, sampleEvery int) *probe {
	p := &probe{}
	if ledger {
		p.sampleEvery = sampleEvery
	}
	return p
}

// start records the base of an interval on the given nodes.
func (p *probe) start(t targets) {
	p.cur = t
	p.feBase, p.feClk, p.fePhase = p.feBase[:0], p.feClk[:0], p.fePhase[:0]
	p.feSelf, p.feElapsed = p.feSelf[:0], p.feElapsed[:0]
	for _, fe := range t.fes {
		p.feBase = append(p.feBase, fe.Stats().Snapshot())
		p.feClk = append(p.feClk, fe.Clock().Now())
		p.fePhase = append(p.fePhase, phaseSelf(fe.Stats()))
		p.feSelf = append(p.feSelf, fe.Tracer().SelfNS())
		p.feElapsed = append(p.feElapsed, fe.Tracer().Elapsed())
	}
	p.nbk, p.nrep = len(t.bks), len(t.reps)
	p.bkBase = p.bkBase[:0]
	for _, bk := range t.bks {
		p.bkBase = append(p.bkBase, bk.Stats().Snapshot())
	}
	p.repBase = p.repBase[:0]
	for _, r := range t.reps {
		p.repBase = append(p.repBase, r.Backend().Stats().Snapshot())
	}
}

// stop closes the interval opened by start and accumulates its deltas.
func (p *probe) stop() {
	for i, fe := range p.cur.fes {
		p.fe = addSnap(p.fe, fe.Stats().Snapshot().Sub(p.feBase[i]))
		p.feVirt += fe.Clock().Now() - p.feClk[i]
		now := phaseSelf(fe.Stats())
		for ph := range now {
			p.phases[ph] += now[ph] - p.fePhase[i][ph]
		}
		self := fe.Tracer().SelfNS()
		for k := range self {
			p.traceSelf += self[k] - p.feSelf[i][k]
		}
		p.traceElapsed += fe.Tracer().Elapsed() - p.feElapsed[i]
	}
	for i, bk := range p.cur.bks {
		p.bk = addSnap(p.bk, bk.Stats().Snapshot().Sub(p.bkBase[i]))
	}
	for i, r := range p.cur.reps {
		p.rep = addSnap(p.rep, r.Backend().Stats().Snapshot().Sub(p.repBase[i]))
	}
	p.cur = targets{}
}

// tick counts one op and, every sampleEvery ops, samples the summed
// replay lag of the primaries and of the replicas, and the summed count
// of writes in the devices' volatile windows.
func (p *probe) tick() {
	if p.sampleEvery == 0 {
		return
	}
	p.ticks++
	if p.ticks%p.sampleEvery != 0 {
		return
	}
	var bl, rl uint64
	for _, bk := range p.cur.bks {
		bl += bk.ReplayLag()
	}
	for _, r := range p.cur.reps {
		rl += r.ReplayLag()
	}
	pw := 0
	for _, d := range p.cur.devs {
		pw += d.PendingWrites()
	}
	p.bkLag = append(p.bkLag, float64(bl))
	p.repLag = append(p.repLag, float64(rl))
	p.pending = append(p.pending, float64(pw))
}

func phaseSelf(st *stats.Stats) [stats.NumPhases]int64 {
	var out [stats.NumPhases]int64
	for ph := range out {
		out[ph] = st.Phase[ph].SelfNS.Load()
	}
	return out
}

// addSnap adds two snapshots field by field (a - (0 - b)).
func addSnap(a, b stats.Snapshot) stats.Snapshot {
	var zero stats.Snapshot
	return a.Sub(zero.Sub(b))
}

// hostMark is the process's CPU time and Go allocator counters at one
// instant.
type hostMark struct {
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcs     uint32
}

// hostDelta is the difference of two marks.
type hostDelta hostMark

func markHost() hostMark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMark{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

func (m hostMark) since(b hostMark) hostDelta {
	return hostDelta{cpu: m.cpu - b.cpu, alloc: m.alloc - b.alloc, mallocs: m.mallocs - b.mallocs, gcs: m.gcs - b.gcs}
}

// allocatedNVM is allocated blocks × block size summed over back-ends.
func allocatedNVM(bks []*backend.Backend) int64 {
	var n int64
	for _, bk := range bks {
		l := bk.Layout()
		n += (int64(l.NBlocks) - int64(bk.FreeBlocksCount())) * int64(l.BlockSize)
	}
	return n
}
