package cluster

import (
	"fmt"
	"runtime"
	"sync"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/core"
	"asymnvm/internal/fault"
	"asymnvm/internal/logrec"
	"asymnvm/internal/mirror"
	"asymnvm/internal/nvm"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
)

// Config sizes a simulated deployment (the paper's testbed is 10 nodes:
// seven front-ends, one back-end, two mirrors).
type Config struct {
	Backends       int
	MirrorsPerBack int  // replica mirrors attached to each back-end
	ArchivePerBack bool // additionally attach one archive mirror
	DeviceBytes    int  // NVM capacity per back-end (and replica)
	Profile        clock.Profile
	BackendConfig  *backend.Config
	// Compact, when non-nil, switches every back-end incarnation in the
	// cluster — primaries, replica replayers, restarted and promoted
	// nodes — to lazy replay with periodic checkpoints (§6 log GC). Each
	// node checkpoints its own device independently; only the epoch is a
	// shared notion (carried in the log records the mirrors replay).
	Compact *backend.CompactConfig
	// Tracer, when non-nil, records per-operation spans for the cluster's
	// primary back-ends and every front-end created through NewFrontend.
	// Replica replayers, promoted mirrors and restarted back-ends are NOT
	// traced: they impersonate the primary's node id, so their spans would
	// collide with the primary actor's on a different clock.
	Tracer *trace.Tracer
}

// DefaultConfig returns a one-back-end, two-mirror deployment with
// benchmark-sized devices.
func DefaultConfig() Config {
	return Config{
		Backends:       1,
		MirrorsPerBack: 0,
		DeviceBytes:    256 << 20,
		Profile:        clock.DefaultProfile(),
	}
}

// Cluster is an assembled deployment.
type Cluster struct {
	cfg      Config
	Backends []*backend.Backend
	Mirrors  [][]*mirror.Replica
	Archives []*mirror.Archive
	KA       *KeepAlive
	devs     []*nvm.Device

	// foMu serializes failure orchestration (crash, restart, promotion,
	// front-end failover decisions). gens counts back-end incarnations per
	// slot so a front-end can tell "someone already replaced this node"
	// from "I must drive the promotion myself".
	foMu     sync.Mutex
	gens     []uint64
	plane    *fault.Plane
	injNames [][]string // per back-end slot: injector names of its connections

	// archiveHome[slot] is the index into Archives of the archive stream
	// currently attached to that back-end slot, or -1. Seeded identity at
	// deployment; RehomeArchive moves an entry when rebalancing migrates a
	// slot's structures to another back-end, and every later restart or
	// promotion of either slot consults this mapping — not the open-time
	// identity — when re-attaching archives.
	archiveHome []int

	// devMu guards devs for the 2PC resolver. It is separate from foMu on
	// purpose: the resolver runs inside backend.New's recovery, which
	// RestartBackend/promoteLocked invoke while HOLDING foMu — consulting
	// a coordinator device mid-restart must not deadlock.
	devMu sync.Mutex
}

// txResolver builds the cluster's in-doubt consultation (§7.2 extended
// for cross-shard transactions): a recovering back-end hands it the
// coordinator's node/slot and the transaction id, and it scans the
// coordinator structure's log straight off that node's device. A
// missing device (node gone, not yet promoted) keeps the prepare held.
func (c *Cluster) txResolver() backend.TxResolver {
	return func(coordNode, coordSlot uint16, txid uint64) backend.TxOutcome {
		c.devMu.Lock()
		var dev *nvm.Device
		if int(coordNode) < len(c.devs) {
			dev = c.devs[coordNode]
		}
		c.devMu.Unlock()
		if dev == nil {
			return backend.TxUnknown
		}
		out, err := backend.ScanTxOutcome(dev, coordSlot, txid)
		if err != nil {
			return backend.TxUnknown
		}
		return out
	}
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Backends <= 0 {
		return nil, fmt.Errorf("cluster: need at least one back-end")
	}
	if cfg.DeviceBytes == 0 {
		cfg.DeviceBytes = 256 << 20
	}
	cl := &Cluster{cfg: cfg, KA: NewKeepAlive()}
	for i := 0; i < cfg.Backends; i++ {
		dev := nvm.NewDevice(cfg.DeviceBytes)
		opts := backend.Options{ID: uint16(i), Profile: &cfg.Profile, Config: cfg.BackendConfig, Tracer: cfg.Tracer, Compact: cfg.Compact, TxResolver: cl.txResolver()}
		bk, err := backend.New(dev, opts)
		if err != nil {
			return nil, err
		}
		var reps []*mirror.Replica
		for m := 0; m < cfg.MirrorsPerBack; m++ {
			mdev := nvm.NewDevice(cfg.DeviceBytes)
			rep, err := mirror.NewReplica(mdev, bk, backend.Options{Profile: &cfg.Profile, Compact: cfg.Compact})
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
			_ = cl.KA.Register(fmt.Sprintf("mirror%d.%d", i, m), RoleMirror, 3)
		}
		home := -1
		if cfg.ArchivePerBack {
			adev := nvm.NewDevice(cfg.DeviceBytes)
			arch, err := mirror.NewArchive(adev, bk, nil, nil, cfg.Profile)
			if err != nil {
				return nil, err
			}
			cl.Archives = append(cl.Archives, arch)
			home = len(cl.Archives) - 1
		}
		cl.archiveHome = append(cl.archiveHome, home)
		bk.Start()
		cl.Backends = append(cl.Backends, bk)
		cl.Mirrors = append(cl.Mirrors, reps)
		cl.devs = append(cl.devs, dev)
		cl.gens = append(cl.gens, 0)
		cl.injNames = append(cl.injNames, nil)
		_ = cl.KA.Register(fmt.Sprintf("backend%d", i), RoleBackend, 3)
	}
	return cl, nil
}

// InjectorName is the fault-plane naming convention for the logical
// connection of front-end feID to back-end slot bkID.
func InjectorName(feID uint16, bkID int) string {
	return fmt.Sprintf("fe%d->bk%d", feID, bkID)
}

// AttachFaultPlane installs a fault-injection plane: front-ends created
// afterwards get a deterministic per-connection verb injector, failure
// orchestration is recorded on the plane's event log, and — when the
// plane configures mirror lag — replication traffic is routed through lag
// queues. Attach before creating front-ends.
func (c *Cluster) AttachFaultPlane(p *fault.Plane) {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	c.plane = p
	if p != nil && p.MirrorLag() > 0 {
		for _, bk := range c.Backends {
			bk.WrapMirrors(p.WrapMirror)
		}
	}
}

// Plane returns the attached fault plane, or nil.
func (c *Cluster) Plane() *fault.Plane {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	return c.plane
}

// BackendHealth is one back-end slot's readiness: its keepalive lease,
// its service-loop liveness, and how many durable memory-log bytes its
// replayer still has to apply.
type BackendHealth struct {
	Slot       int
	LeaseAlive bool
	LoopAlive  bool
	ReplayLag  uint64
}

// OK reports whether the slot can serve: lease held and loop running.
// Replay lag is advisory — it bounds how stale reader-side materialized
// state may be, not whether the log path works.
func (h BackendHealth) OK() bool { return h.LeaseAlive && h.LoopAlive }

// Health reports per-slot readiness across the deployment's back-ends.
// Promotion swaps the slot's *backend.Backend in place, so this always
// describes the current incarnation.
func (c *Cluster) Health() []BackendHealth {
	c.foMu.Lock()
	backs := append([]*backend.Backend(nil), c.Backends...)
	c.foMu.Unlock()
	out := make([]BackendHealth, len(backs))
	for i, bk := range backs {
		out[i] = BackendHealth{
			Slot:       i,
			LeaseAlive: c.KA.Alive(fmt.Sprintf("backend%d", i)),
			LoopAlive:  bk != nil && bk.Alive(),
		}
		if out[i].LoopAlive {
			out[i].ReplayLag = bk.ReplayLag()
		}
	}
	return out
}

// Stop drains and stops every node.
func (c *Cluster) Stop() {
	for _, bk := range c.Backends {
		bk.Stop()
	}
	for _, reps := range c.Mirrors {
		for _, r := range reps {
			r.Stop()
		}
	}
}

// NewFrontend creates a front-end node registered with keepAlive and
// connected to every back-end. The returned connections are indexed by
// back-end id.
func (c *Cluster) NewFrontend(id uint16, mode core.Mode) (*core.Frontend, []*core.Conn, error) {
	fe := core.NewFrontend(core.FrontendOptions{ID: id, Mode: mode, Profile: &c.cfg.Profile, Tracer: c.cfg.Tracer})
	conns := make([]*core.Conn, 0, len(c.Backends))
	for i, bk := range c.Backends {
		conn, err := fe.Connect(bk)
		if err != nil {
			return nil, nil, err
		}
		c.enableResilience(id, i, conn)
		conns = append(conns, conn)
	}
	_ = c.KA.Register(fmt.Sprintf("frontend%d", id), RoleFrontend, 3)
	return fe, conns, nil
}

// NewMirrorFrontend creates a read-only front-end connected to one
// replica mirror's internal back-end instead of the primary. The replica
// impersonates the primary's node id, so global addresses read off it
// resolve identically; its state lags the primary by whatever the
// replication pipe plus its replayer have not applied yet. Callers bound
// that staleness with MirrorStaleness and refresh it with SyncMirrors.
// Mirror connections get no fault injector or failover delegate: a
// mirror that falls over is simply not consulted.
func (c *Cluster) NewMirrorFrontend(id uint16, backendID, mirrorIdx int, mode core.Mode) (*core.Frontend, *core.Conn, error) {
	c.foMu.Lock()
	if backendID >= len(c.Mirrors) || mirrorIdx >= len(c.Mirrors[backendID]) {
		c.foMu.Unlock()
		return nil, nil, fmt.Errorf("cluster: no mirror %d.%d", backendID, mirrorIdx)
	}
	rep := c.Mirrors[backendID][mirrorIdx]
	c.foMu.Unlock()
	fe := core.NewFrontend(core.FrontendOptions{ID: id, Mode: mode, Profile: &c.cfg.Profile})
	conn, err := fe.Connect(rep.Backend())
	if err != nil {
		return nil, nil, err
	}
	return fe, conn, nil
}

// SyncMirrors flushes the replication pipe to a back-end's mirrors (any
// fault-plane lag queues included) and waits for each replica's internal
// replayer to apply everything it has, so mirror-served state catches up
// to the primary's applied point. Convergence is judged by per-slot
// seqlock SN parity with the primary, not ReplayLag alone: a replica
// that has not yet discovered a slot (its naming scan runs inside its
// own service loop) reports zero lag for it, and the aux tail hints
// ReplayLag reads are advisory front-end writes that do not travel the
// replication pipe. SN words do — the replica's replayer bumps them as
// it applies — so equal SNs mean equal applied state. Call this at a
// quiescent point (primary drained); otherwise it chases a moving target.
func (c *Cluster) SyncMirrors(backendID int) {
	c.foMu.Lock()
	plane := c.plane
	reps := append([]*mirror.Replica(nil), c.Mirrors[backendID]...)
	c.foMu.Unlock()
	if plane != nil {
		plane.DrainMirrors()
	}
	primary := c.Backends[backendID]
	for _, rep := range reps {
		for {
			rep.MirrorKick()
			want := primary.SlotSNs()
			got := rep.Backend().SlotSNs()
			synced := rep.ReplayLag() == 0
			for slot, sn := range want {
				if got[slot] != sn {
					synced = false
					break
				}
			}
			if synced {
				break
			}
			runtime.Gosched()
		}
	}
}

// MirrorStaleness reports how many applied transactions (epoch steps) the
// mirror's view of one structure slot is behind the primary's: the
// seqlock sequence number advances by two per applied transaction, so the
// distance is half the SN gap. A negative gap cannot happen (the mirror
// replays the primary's own log); equal SNs mean the mirror is current.
func MirrorStaleness(primary, mirrored *core.Conn, slot uint16) (uint64, error) {
	psn, err := primary.SlotSN(slot)
	if err != nil {
		return 0, err
	}
	msn, err := mirrored.SlotSN(slot)
	if err != nil {
		return 0, err
	}
	if msn >= psn {
		return 0, nil
	}
	return (psn - msn) / 2, nil
}

// enableResilience installs the connection's fault injector (when a plane
// is attached) and its failover delegate.
func (c *Cluster) enableResilience(feID uint16, slot int, conn *core.Conn) {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	name := InjectorName(feID, slot)
	if c.plane != nil {
		inj := c.plane.Injector(name)
		// A fresh connection to the current incarnation is connected by
		// definition; clear any disconnect left from an earlier crash.
		inj.Reconnect()
		conn.Endpoint().SetFault(inj.Hook())
		known := false
		for _, n := range c.injNames[slot] {
			if n == name {
				known = true
				break
			}
		}
		if !known {
			c.injNames[slot] = append(c.injNames[slot], name)
		}
	}
	gen := c.gens[slot] // incarnation this connection last targeted
	conn.SetFailover(func() (*backend.Backend, error) {
		c.foMu.Lock()
		defer c.foMu.Unlock()
		lease := fmt.Sprintf("backend%d", slot)
		if c.gens[slot] == gen {
			// No replacement yet. Only the keep-alive authority may
			// declare the back-end dead (§7.2 Case 3/4) — a front-end that
			// merely lost its own connection must keep retrying.
			if c.KA.Alive(lease) {
				return nil, fmt.Errorf("cluster: %s lease still alive; not failing over", lease)
			}
			if len(c.Mirrors[slot]) == 0 {
				return nil, fmt.Errorf("cluster: %s lost with no replica to promote", lease)
			}
			if _, err := c.promoteLocked(slot, 0); err != nil {
				return nil, err
			}
		}
		gen = c.gens[slot]
		if c.plane != nil {
			c.plane.Injector(name).Reconnect()
		}
		return c.Backends[slot], nil
	})
}

// Device exposes a back-end's NVM device for crash injection.
func (c *Cluster) Device(backendID int) *nvm.Device { return c.devs[backendID] }

// MappedBytes reports the host memory held by every device image in the
// deployment — back-ends, replicas and archives — as nvm.Device counts it.
func (c *Cluster) MappedBytes() int {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	total := 0
	c.devMu.Lock()
	for _, d := range c.devs {
		total += d.MappedBytes()
	}
	c.devMu.Unlock()
	for _, reps := range c.Mirrors {
		for _, r := range reps {
			total += r.Device().MappedBytes()
		}
	}
	for _, a := range c.Archives {
		total += a.Device().MappedBytes()
	}
	return total
}

// ---- recovery orchestration (§7.2) ----

// archiveFor returns the archive sink whose current home is the given
// back-end slot, or nil. The lookup goes through the versioned
// archiveHome mapping rather than a slot-index identity: after a
// rebalance re-homes an archive stream, a restarted incarnation of the
// OLD slot must not re-adopt a stream that followed its structures to
// another back-end (the stale-owner bug), and the NEW slot must.
func (c *Cluster) archiveFor(backendID int) *mirror.Archive {
	if backendID >= len(c.archiveHome) {
		return nil
	}
	ai := c.archiveHome[backendID]
	if ai < 0 || ai >= len(c.Archives) {
		return nil
	}
	return c.Archives[ai]
}

// CrashBackend kills a back-end without replacing it: the process stops
// (optionally with a power failure on the device) and its lease expires,
// which authorizes front-ends to drive a mirror promotion through their
// failover delegates. When a fault plane is attached, the dead node's
// connections are marked disconnected so the next verb on each surfaces
// rdma.ErrDisconnected instead of hanging.
func (c *Cluster) CrashBackend(backendID int, powerFail bool) {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	if powerFail {
		// Power failure: Halt skips the graceful drain/checkpoint so the
		// device crash below sees a realistic mid-flight image.
		c.Backends[backendID].Halt()
		c.devs[backendID].Crash(nil)
	} else {
		c.Backends[backendID].Stop()
	}
	c.KA.Expire(fmt.Sprintf("backend%d", backendID))
	if c.plane != nil {
		for _, name := range c.injNames[backendID] {
			c.plane.Injector(name).Disconnect()
		}
		c.plane.Record(fmt.Sprintf("crash backend%d powerFail=%v", backendID, powerFail))
	}
}

// RestartBackend models Case 3, a transient back-end failure: the node's
// process dies (optionally with a power failure on the device) and comes
// back on the same NVM. The replayer validates the last transaction's
// checksum and re-applies whatever was persisted but not applied. The new
// instance replaces the old one in the cluster; front-ends with a
// failover delegate re-target on their next verb, others reconnect.
func (c *Cluster) RestartBackend(backendID int, powerFail bool) (*backend.Backend, []backend.SlotStatus, error) {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	old := c.Backends[backendID]
	if powerFail {
		old.Halt()
	} else {
		old.Stop()
	}
	if c.plane != nil {
		// Flush and discard lag queues: the replicas get a fresh full
		// sync below, so stale queued writes must not resurface later.
		c.plane.DropMirrors()
	}
	if powerFail {
		c.devs[backendID].Crash(nil)
	}
	bk, err := backend.New(c.devs[backendID], backend.Options{
		ID: uint16(backendID), Profile: &c.cfg.Profile, Compact: c.cfg.Compact,
		TxResolver: c.txResolver(),
	})
	if err != nil {
		return nil, nil, err
	}
	// Re-attach the surviving mirrors (a fresh initial sync, as at
	// deployment time), then the archive: its op cursor resumes at the
	// replayer's applied point, everything earlier was archived before
	// the stop drain.
	for m, old := range c.Mirrors[backendID] {
		// The replaced replica's replayer must be gone before the re-sync:
		// left running, a pending kick lets it replay the fresh image from
		// its stale in-memory cursors, applying transactions a second time
		// and leaving the mirror's seqlock ahead of the primary's.
		old.Stop()
		rep, err := mirror.NewReplica(old.Device(), bk, backend.Options{Profile: &c.cfg.Profile, Compact: c.cfg.Compact})
		if err != nil {
			return nil, nil, err
		}
		c.Mirrors[backendID][m] = rep
	}
	if arch := c.archiveFor(backendID); arch != nil {
		bk.AddMirror(arch)
	}
	if c.plane != nil && c.plane.MirrorLag() > 0 {
		bk.WrapMirrors(c.plane.WrapMirror)
	}
	bk.Start()
	c.Backends[backendID] = bk
	c.gens[backendID]++
	if c.plane != nil {
		c.plane.Record(fmt.Sprintf("restart backend%d powerFail=%v gen=%d", backendID, powerFail, c.gens[backendID]))
	}
	_ = c.KA.Renew(fmt.Sprintf("backend%d", backendID))
	return bk, bk.RecoveredSlots(), nil
}

// PromoteMirror models Case 4, a permanent back-end failure with an NVM
// replica available: the mirror is voted the new back-end and keeps the
// dead node's identity so all stored global addresses stay valid.
func (c *Cluster) PromoteMirror(backendID, mirrorIdx int) (*backend.Backend, error) {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	return c.promoteLocked(backendID, mirrorIdx)
}

// promoteLocked performs the promotion; foMu must be held. The dead
// primary is stopped (idempotent — the crash path usually already did),
// lag queues are drained first: promotion models the replica having
// acknowledged every safe transaction, so nothing may still sit in the
// replication pipe. Surviving replicas are then re-attached to the new
// primary with a fresh full sync, and the archive stream re-homed, so a
// later failure of the promoted node remains survivable.
func (c *Cluster) promoteLocked(backendID, mirrorIdx int) (*backend.Backend, error) {
	c.KA.Expire(fmt.Sprintf("backend%d", backendID))
	c.Backends[backendID].Stop()
	if c.plane != nil {
		c.plane.DropMirrors()
	}
	rep := c.Mirrors[backendID][mirrorIdx]
	bk, err := rep.Promote(backend.Options{Profile: &c.cfg.Profile, Compact: c.cfg.Compact, TxResolver: c.txResolver()})
	if err != nil {
		return nil, err
	}
	c.Mirrors[backendID] = append(c.Mirrors[backendID][:mirrorIdx], c.Mirrors[backendID][mirrorIdx+1:]...)
	for m, old := range c.Mirrors[backendID] {
		old.Stop() // as in RestartBackend: no stale replayer may outlive the re-sync
		nrep, err := mirror.NewReplica(old.Device(), bk, backend.Options{Profile: &c.cfg.Profile, Compact: c.cfg.Compact})
		if err != nil {
			return nil, err
		}
		c.Mirrors[backendID][m] = nrep
	}
	if arch := c.archiveFor(backendID); arch != nil {
		bk.AddMirror(arch)
	}
	if c.plane != nil && c.plane.MirrorLag() > 0 {
		bk.WrapMirrors(c.plane.WrapMirror)
	}
	bk.Start()
	c.Backends[backendID] = bk
	c.devMu.Lock()
	c.devs[backendID] = rep.Device()
	c.devMu.Unlock()
	c.gens[backendID]++
	if c.plane != nil {
		c.plane.Record(fmt.Sprintf("promote backend%d mirror=%d gen=%d", backendID, mirrorIdx, c.gens[backendID]))
	}
	_ = c.KA.Renew(fmt.Sprintf("backend%d", backendID))
	return bk, nil
}

// Reexec replays one archived operation through data-structure semantics;
// the ds layer provides implementations per structure type.
type Reexec func(slot uint16, rec logrec.OpRecord) error

// RebuildFromArchive models Case 4 without an NVM replica: a brand-new
// back-end is formatted and the front-ends re-execute the archived
// operation stream through their normal write paths.
func (c *Cluster) RebuildFromArchive(backendID int, arch *mirror.Archive, reexec Reexec) (*backend.Backend, error) {
	c.foMu.Lock()
	c.KA.Expire(fmt.Sprintf("backend%d", backendID))
	c.Backends[backendID].Stop()
	if c.plane != nil {
		c.plane.DropMirrors() // flush any lagged tail into the archive
	}
	dev := nvm.NewDevice(c.cfg.DeviceBytes)
	bk, err := backend.New(dev, backend.Options{ID: uint16(backendID), Profile: &c.cfg.Profile, Compact: c.cfg.Compact})
	if err != nil {
		c.foMu.Unlock()
		return nil, err
	}
	bk.Start()
	c.Backends[backendID] = bk
	c.devMu.Lock()
	c.devs[backendID] = dev
	c.devMu.Unlock()
	c.gens[backendID]++
	if c.plane != nil {
		c.plane.Record(fmt.Sprintf("rebuild backend%d gen=%d", backendID, c.gens[backendID]))
	}
	// Release before re-execution: reexec drives normal front-end write
	// paths, which may themselves need the failover machinery.
	c.foMu.Unlock()
	ops, err := arch.Ops()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		if err := reexec(op.Slot, op.Rec); err != nil {
			return nil, fmt.Errorf("cluster: re-executing archived op: %w", err)
		}
	}
	_ = c.KA.Renew(fmt.Sprintf("backend%d", backendID))
	return bk, nil
}

// FrontendStats aggregates snapshots from several front-ends.
func FrontendStats(fes ...*core.Frontend) stats.Snapshot {
	var total stats.Snapshot
	for _, fe := range fes {
		total = addSnap(total, fe.Stats().Snapshot())
	}
	return total
}

func addSnap(a, b stats.Snapshot) stats.Snapshot {
	var zero stats.Snapshot
	return a.Sub(zero.Sub(b))
}
