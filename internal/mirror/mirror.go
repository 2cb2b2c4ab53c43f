// Package mirror implements AsymNVM mirror nodes (§7.1). A back-end
// replicates its logs to at least one mirror before a transaction is
// considered safe against permanent back-end loss. Two kinds exist, as in
// the paper:
//
//   - Replica: an NVM-equipped mirror keeping a byte-identical copy of
//     the primary's metadata and log areas and running its own log
//     replayer, so it "will be voted as the new back-end" directly;
//   - Archive: a mirror on slower durable media (SSD/disk in the paper)
//     that only appends the semantic operation-log stream; after a
//     permanent back-end failure the front-ends replay it into a fresh
//     back-end.
package mirror

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/logrec"
	"asymnvm/internal/nvm"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
)

// Replica is an NVM-equipped mirror node.
type Replica struct {
	dev *nvm.Device
	bk  *backend.Backend // internal replayer over the replicated bytes
	mu  sync.Mutex
	err error
}

// NewReplica attaches a replica mirror to primary: the mirror device is
// synchronized with a copy of the primary device's written pages (the
// initial sync a real deployment performs once at attach time), an internal replayer is
// started, and the mirror registers itself as a sink on the primary.
func NewReplica(dev *nvm.Device, primary *backend.Backend, opts backend.Options) (*Replica, error) {
	if err := dev.CopyFrom(primary.Device()); err != nil {
		return nil, fmt.Errorf("mirror: seed replica: %w", err)
	}
	// The internal replayer impersonates the primary's node id so global
	// addresses inside replicated logs stay valid.
	opts.ID = primary.ID()
	bk, err := backend.New(dev, opts)
	if err != nil {
		return nil, err
	}
	r := &Replica{dev: dev, bk: bk}
	bk.Start()
	primary.AddMirror(r)
	return r, nil
}

// WantsRaw reports that replicas take raw device ranges.
func (r *Replica) WantsRaw() bool { return true }

// MirrorWrite applies a replicated range at the same device offset.
func (r *Replica) MirrorWrite(devOff uint64, data []byte) error {
	return r.dev.WritePersist(devOff, data)
}

// MirrorOp is ignored by replicas (they already hold the raw log bytes).
func (r *Replica) MirrorOp(uint16, []byte) error { return nil }

// MirrorKick lets the internal replayer catch up.
func (r *Replica) MirrorKick() { r.bk.Kick() }

// Device exposes the replica device (crash injection in tests).
func (r *Replica) Device() *nvm.Device { return r.dev }

// Backend exposes the replica's internal replayer back-end. Front-ends
// may connect to it for mirror-served reads (§7.1 extended): the replica
// holds a byte-identical copy of the primary, so read verbs against it
// return real — possibly stale — structure state. Its per-slot sequence
// numbers lag the primary's by exactly the unapplied suffix, which is
// what bounds the staleness a mirror-served read can observe.
func (r *Replica) Backend() *backend.Backend { return r.bk }

// ReplayLag reports how many durable-but-unapplied memory-log bytes the
// replica's internal replayer still has to catch up on.
func (r *Replica) ReplayLag() uint64 { return r.bk.ReplayLag() }

// Promote turns the replica into a live back-end after the primary is
// gone: the internal replayer is drained and stopped, and a fresh back-end
// is recovered from the replicated bytes, keeping the primary's node id.
func (r *Replica) Promote(opts backend.Options) (*backend.Backend, error) {
	r.bk.Stop()
	opts.ID = r.bk.ID()
	return backend.New(r.dev, opts)
}

// Stop halts the internal replayer without promoting.
func (r *Replica) Stop() { r.bk.Stop() }

// ---- archive mirrors ----

// Archive layout on its device: a 16-byte header (magic, tail), then an
// append-only run of framed records: {len uint32, slot uint16, bytes}.
const (
	archiveMagic  uint64 = 0x5643524D59534131 // "ASYMRCV1"-ish tag
	archiveHdr           = 16
	frameOverhead        = 4 + 2
)

// Archive is a log-only mirror on durable media.
type Archive struct {
	mu         sync.Mutex
	dev        *nvm.Device
	tail       uint64
	clk        clock.Clock
	st         *stats.Stats
	prof       clock.Profile
	tr         *trace.ActorTracer // nil when tracing is disabled
	pendingOps int                // appends since the last persist barrier
}

// NewArchive opens (or initializes) an archive mirror on dev and attaches
// it to primary. prof prices the archive's local persists.
func NewArchive(dev *nvm.Device, primary *backend.Backend, clk clock.Clock, st *stats.Stats, prof clock.Profile) (*Archive, error) {
	if clk == nil {
		clk = clock.NewVirtual()
	}
	if st == nil {
		st = &stats.Stats{}
	}
	a := &Archive{dev: dev, clk: clk, st: st, prof: prof}
	magic, err := dev.Load64(0)
	if err != nil {
		return nil, err
	}
	if magic == archiveMagic {
		if a.tail, err = dev.Load64(8); err != nil {
			return nil, err
		}
	} else {
		if err := dev.Store64(0, archiveMagic); err != nil {
			return nil, err
		}
		if err := dev.Store64(8, 0); err != nil {
			return nil, err
		}
		a.tail = 0
	}
	if primary != nil {
		primary.AddMirror(a)
	}
	return a, nil
}

// Device exposes the archive's device.
func (a *Archive) Device() *nvm.Device { return a.dev }

// SetTracer installs (or clears) the archive actor's tracer.
func (a *Archive) SetTracer(tr *trace.ActorTracer) {
	a.mu.Lock()
	a.tr = tr
	a.mu.Unlock()
}

// WantsRaw reports that archives take the semantic stream only.
func (a *Archive) WantsRaw() bool { return false }

// MirrorWrite is ignored by archives.
func (a *Archive) MirrorWrite(uint64, []byte) error { return nil }

// MirrorOp appends one op record frame and persists the new tail.
func (a *Archive) MirrorOp(slot uint16, rec []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	off := archiveHdr + a.tail
	need := uint64(frameOverhead + len(rec))
	if off+need > a.dev.Size() {
		return errors.New("mirror: archive full")
	}
	frame := make([]byte, need)
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint16(frame[4:], slot)
	copy(frame[frameOverhead:], rec)
	if err := a.dev.WritePersist(off, frame); err != nil {
		return err
	}
	a.tail += need
	if err := a.dev.Store64(8, a.tail); err != nil {
		return err
	}
	// The media write is charged per append; the persist barrier is
	// deferred to MirrorKick so a drain batch pays it once (the archive is
	// append-only, so a trailing barrier covers the whole batch).
	a.clk.Advance(a.prof.LocalNVMWrite(int(need)))
	a.tr.Charge(trace.KindMirrorFwd, a.prof.LocalNVMWrite(int(need)))
	a.st.AddBusy(a.prof.LocalNVMWrite(int(need)))
	a.pendingOps++
	return nil
}

// MirrorKick issues the batched persist barrier for appends since the
// last kick.
func (a *Archive) MirrorKick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pendingOps > 0 {
		a.clk.Advance(a.prof.PersistBarrier)
		a.tr.Charge(trace.KindMirrorFwd, a.prof.PersistBarrier)
		a.tr.Event(trace.KindOverlapSaved, uint64(int64(a.prof.PersistBarrier)*int64(a.pendingOps-1)))
		a.st.OverlapSavedNS.Add(int64(a.prof.PersistBarrier) * int64(a.pendingOps-1))
		a.pendingOps = 0
	}
}

// ArchivedOp is one replayable operation from the archive stream.
type ArchivedOp struct {
	Slot uint16
	Rec  logrec.OpRecord
}

// Ops decodes the full archived stream in append order. Front-ends replay
// it through normal data-structure operations to rebuild a lost back-end.
func (a *Archive) Ops() ([]ArchivedOp, error) {
	a.mu.Lock()
	tail := a.tail
	a.mu.Unlock()
	var out []ArchivedOp
	off := uint64(archiveHdr)
	end := archiveHdr + tail
	hdr := make([]byte, frameOverhead)
	// A primary that power-failed mid-run resumes its archive scan at the
	// recovered watermark, which may re-forward records the pre-crash scan
	// already sent. Per-slot op-log offsets only grow, so a frame whose
	// Abs falls below the slot's high-water mark is such a replayed
	// duplicate; drop it instead of re-executing the operation.
	next := make(map[uint16]uint64)
	for off < end {
		if err := a.dev.ReadAt(off, hdr); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		slot := binary.LittleEndian.Uint16(hdr[4:])
		body := make([]byte, n)
		if err := a.dev.ReadAt(off+frameOverhead, body); err != nil {
			return nil, err
		}
		// Frames hold verbatim op records; their embedded Abs offsets
		// refer to the primary's op-log area, which the decoder checks.
		rec, used, err := decodeArchivedOp(body)
		if err != nil {
			return nil, fmt.Errorf("mirror: corrupt archive frame at %d: %w", off, err)
		}
		if rec.Abs >= next[slot] {
			out = append(out, ArchivedOp{Slot: slot, Rec: rec})
			next[slot] = rec.Abs + uint64(used)
		}
		off += frameOverhead + uint64(n)
	}
	return out, nil
}

// decodeArchivedOp decodes an op record using its own embedded Abs as the
// expectation (the archive preserves records verbatim; the checksum still
// guards integrity).
func decodeArchivedOp(body []byte) (logrec.OpRecord, int, error) {
	if len(body) < 12 {
		return logrec.OpRecord{}, 0, logrec.ErrShort
	}
	abs := binary.LittleEndian.Uint64(body[4:])
	return logrec.DecodeOp(body, abs)
}
