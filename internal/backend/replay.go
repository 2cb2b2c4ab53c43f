package backend

import (
	"errors"
	"fmt"
	"slices"

	"asymnvm/internal/alloc"
	"asymnvm/internal/logrec"
	"asymnvm/internal/trace"
)

// maxTxChunk bounds a single refill of the replay scan buffer. It must
// exceed the largest possible transaction record (a batch of 4096
// operations can log a few megabytes), or the replayer would mistake a
// huge record for a torn tail.
const maxTxChunk = 16 << 20

// recover rebuilds volatile state from the device after (re)start: the
// block allocator from the persistent bitmap, the RPC sequence numbers
// from the response cells, the per-structure replay cursors from the aux
// blocks — then validates log tails with checksums and applies every
// committed transaction that was persisted but not yet applied (§7.2,
// back-end Cases 3.a/3.b/3.c).
func (b *Backend) recover() error {
	// Allocator from the persistent bitmap.
	img := make([]byte, b.layout.BitmapBytes)
	if err := b.dev.ReadAt(b.layout.BitmapBase, img); err != nil {
		return err
	}
	ba, err := alloc.LoadBitmap(img, int(b.layout.NBlocks), int(b.layout.BlockSize))
	if err != nil {
		return err
	}
	b.balloc = ba

	// RPC cursors from the response cells.
	b.rpcLast = make([]uint64, b.layout.RPCSlots)
	cell := make([]byte, 64)
	for c := range b.rpcLast {
		if err := b.dev.ReadAt(b.layout.RPCRespOff(uint16(c)), cell); err != nil {
			return err
		}
		if resp, ok := DecodeRPCResponse(cell); ok {
			b.rpcLast[c] = resp.Seq
		}
	}

	// Bump the epoch so front-ends can detect a restart. Mirrors observe
	// the same word through raw replication, so a promoted replica and a
	// rebuilt archive agree with the primary's incarnation count.
	epoch, err := b.dev.Load64(hdrEpoch)
	if err != nil {
		return err
	}
	b.epoch = epoch + 1
	if err := b.dev.Store64(hdrEpoch, b.epoch); err != nil {
		return err
	}

	// Discover structures and replay their logs — from the newest valid
	// checkpoint onward, not from the beginning of history.
	b.inRecovery = true
	defer func() { b.inRecovery = false }()
	if err := b.refreshSlots(); err != nil {
		return err
	}
	b.mu.Lock()
	dss := make([]*dsReplay, 0, len(b.dss))
	for _, ds := range b.dss {
		dss = append(dss, ds)
	}
	b.mu.Unlock()
	for _, ds := range dss {
		status, err := b.replaySlot(ds)
		if err != nil {
			return err
		}
		// Consult the coordinator log for prepares the scan left in doubt
		// (presumed-abort recovery; see twopc.go).
		status.InDoubt, err = b.resolveInDoubt(ds)
		if err != nil {
			return err
		}
		entry, err := b.readNameEntry(ds.slot)
		if err != nil {
			return err
		}
		status.Slot = ds.slot
		status.Type = entry.Type
		status.Name = entry.Name
		status.LockHeld = entry.Lock
		status.PendingOps = b.countPendingOps(ds)
		b.recovered = append(b.recovered, status)
	}
	b.inRecovery = false
	// Checkpoint what recovery just replayed, so an immediate second
	// crash replays nothing twice and the suffix stays short.
	b.checkpointAll()
	// Recovery replay may have forwarded to mirrors; settle the channel
	// before the back-end starts serving.
	b.drainMirrorPipe()
	return nil
}

// readNameEntry reads and decodes one naming-table slot.
func (b *Backend) readNameEntry(slot uint16) (NameEntry, error) {
	buf := make([]byte, NameEntrySize)
	if err := b.dev.ReadAt(b.layout.NameEntryOff(slot), buf); err != nil {
		return NameEntry{}, err
	}
	return DecodeNameEntry(buf)
}

// refreshSlots scans the naming table for structures the replayer does not
// know yet and loads their aux blocks. Front-ends create structures with
// one-sided writes, so discovery happens here, on the next kick.
func (b *Backend) refreshSlots() error {
	n := uint16(b.layout.NameEntries)
	for slot := uint16(0); slot < n; slot++ {
		b.mu.Lock()
		_, known := b.dss[slot]
		b.mu.Unlock()
		if known {
			continue
		}
		entry, err := b.readNameEntry(slot)
		if err != nil {
			return err
		}
		if !entry.Used || entry.Aux == 0 {
			continue
		}
		if AddrNode(entry.Aux) != b.id {
			continue // foreign aux: partition metadata owned elsewhere
		}
		auxOff := AddrOff(entry.Aux)
		aux := make([]byte, AuxSize)
		if err := b.dev.ReadAt(auxOff, aux); err != nil {
			return err
		}
		ds := &dsReplay{
			slot:   slot,
			auxOff: auxOff,
			snOff:  b.layout.SNOff(slot),
		}
		ds.memArea = logrec.Area{Base: le64at(aux, auxMemLogBase), Size: le64at(aux, auxMemLogSize)}
		ds.opArea = logrec.Area{Base: le64at(aux, auxOpLogBase), Size: le64at(aux, auxOpLogSize)}
		ds.lpn.Store(le64at(aux, auxLPN))
		ds.opn.Store(le64at(aux, auxOPN))
		ds.memTrunc.Store(le64at(aux, auxMemTrunc))
		ds.opTrunc.Store(le64at(aux, auxOpTrunc))
		if ds.memArea.Size == 0 || ds.opArea.Size == 0 {
			continue // creation still in progress; retry on next kick
		}
		ds.memRec = alloc.NewReclaimer(b.layout.BlockSize)
		ds.opRec = alloc.NewReclaimer(b.layout.BlockSize)
		if b.replayFromZero {
			// Test-only: pretend no progress was ever recorded and replay
			// the full history (valid only while the log was never
			// scrubbed, i.e. CompactConfig.KeepPages).
			ds.lpn.Store(0)
			ds.opn.Store(0)
			ds.memTrunc.Store(0)
			ds.opTrunc.Store(0)
		} else if rec, ok := b.bestCkpt(ds, aux); ok {
			// Adopt the newest valid checkpoint: replay resumes at its
			// watermarks, skipping the already-applied (and possibly
			// scrubbed) prefix.
			if rec.LPN > ds.lpn.Load() {
				ds.lpn.Store(rec.LPN)
			}
			if rec.OPN > ds.opn.Load() {
				ds.opn.Store(rec.OPN)
			}
			ds.ckptSeq = rec.Seq + 1
		}
		ds.opSeen = ds.opn.Load()
		// Replicate the naming entry and aux block so mirrors know the
		// structure exists.
		entryBuf := make([]byte, NameEntrySize)
		if err := b.dev.ReadAt(b.layout.NameEntryOff(slot), entryBuf); err != nil {
			return err
		}
		b.forwardRaw(b.layout.NameEntryOff(slot), entryBuf)
		b.forwardRaw(auxOff, aux)
		b.mu.Lock()
		b.dss[slot] = ds
		b.mu.Unlock()
	}
	return nil
}

// replayAll is the service-loop body: discover new structures, then for
// each structure forward fresh op-log records to mirrors and apply fresh
// committed transactions to the data area.
func (b *Backend) replayAll() {
	if err := b.refreshSlots(); err != nil {
		b.setErr(err)
		return
	}
	b.mu.Lock()
	dss := make([]*dsReplay, 0, len(b.dss))
	for _, ds := range b.dss {
		dss = append(dss, ds)
	}
	b.mu.Unlock()
	kickMirrors := false
	for _, ds := range dss {
		b.archiveOps(ds)
		if _, err := b.replaySlot(ds); err != nil {
			b.setErr(err)
		}
		b.maybeCheckpoint(ds)
		kickMirrors = true
	}
	if kickMirrors {
		b.mu.Lock()
		mirrors := append([]MirrorSink(nil), b.mirrors...)
		b.mu.Unlock()
		for _, m := range mirrors {
			m.MirrorKick()
		}
	}
}

// readArea reads n logical bytes starting at abs from a circular area,
// splitting around the wrap point. The bytes land in dst's backing array
// when it has room for them (pass nil for a fresh slice).
func (b *Backend) readArea(dst []byte, area logrec.Area, abs uint64, n int) ([]byte, error) {
	out := slices.Grow(dst[:0], n)[:n]
	pos := 0
	for _, r := range area.Split(abs, n) {
		if err := b.dev.ReadAt(r.DevOff, out[pos:pos+r.Len]); err != nil {
			return nil, err
		}
		pos += r.Len
	}
	b.chargeBusy(b.prof.LocalNVMRead(n))
	return out, nil
}

// replaySlot applies every complete, checksum-valid transaction between
// the LPN and the log tail, in log order, bumping the structure's seqlock
// around each application (Algorithm 2's Write_Begin/Write_End run here,
// in the back-end, exactly as the paper specifies).
func (b *Backend) replaySlot(ds *dsReplay) (SlotStatus, error) {
	var status SlotStatus
	chunk := 4 << 10
	for {
		n := chunk
		if uint64(n) > ds.memArea.Size {
			n = int(ds.memArea.Size)
		}
		lpn := ds.lpn.Load()
		var err error
		if b.scanBuf, err = b.readArea(b.scanBuf, ds.memArea, lpn, n); err != nil {
			return status, err
		}
		// Every decoder below copies what it keeps (DecodeTxInto into
		// the arena, a held prepare's values onto the heap), and applyTx
		// forwards freshly read bytes, so the scan buffer is dead once
		// the chunk is consumed.
		buf := b.scanBuf
		pos := 0
		progressed := false
		for {
			// Dispatch on the record magic: plain transactions apply
			// immediately; 2PC prepares are buffered unapplied and commit
			// records resolve them (twopc.go).
			var used int
			var derr error
			switch buf[pos] {
			case logrec.PrepareMagic:
				used, derr = b.replayPrepare(ds, buf[pos:], lpn)
			case logrec.CommitMagic:
				used, derr = b.replayDecision(ds, buf[pos:], lpn)
			default:
				// Decode into the service loop's reused record + arena: the
				// record lives exactly one applyTx, so steady-state replay
				// stops allocating per transaction.
				rec := &b.txScratch
				used, derr = logrec.DecodeTxInto(rec, buf[pos:], lpn, &b.decArena)
				if derr == nil {
					err := b.applyTx(ds, rec, lpn+uint64(used))
					b.decArena.Reset()
					if err != nil {
						return status, err
					}
					ds.opn.Store(rec.CoverOp)
				}
			}
			if derr != nil {
				b.decArena.Reset()
				if errors.Is(derr, errApply) {
					return status, derr // device/apply failure, not a log tail
				}
				if errors.Is(derr, logrec.ErrShort) && !progressed && chunk < maxTxChunk && uint64(chunk) < ds.memArea.Size {
					chunk *= 2 // a record larger than the scan buffer
					break
				}
				if errors.Is(derr, logrec.ErrShort) && progressed {
					break // refill from the new LPN
				}
				// End of valid log. Distinguish a clean tail from a torn
				// transaction: a matching header whose commit/checksum
				// fails means a front-end died mid-flush (Case 3.b).
				if errors.Is(derr, logrec.ErrBadCRC) || errors.Is(derr, logrec.ErrNoCommit) {
					status.TornTail = true
					status.TornAt = lpn
				}
				return status, nil
			}
			lpn += uint64(used)
			ds.lpn.Store(lpn)
			ds.appliedSince += uint64(used)
			pos += used
			progressed = true
			if len(buf)-pos < 32 {
				break // refill
			}
		}
		if !progressed && chunk >= maxTxChunk {
			return status, nil
		}
	}
}

// applyTx replicates the raw record to mirrors, then applies each memory
// log entry to the data area and persists the new cursors.
func (b *Backend) applyTx(ds *dsReplay, rec *logrec.TxRecord, newLPN uint64) error {
	b.tr.BeginArg(trace.KindReplay, uint64(len(rec.Entries)))
	defer b.tr.End()
	// Replicate the log record before applying it (§7.1: logs reach the
	// mirror before the transaction commits to the data area). Only the
	// record's extent matters here — the bytes forwarded are read back
	// from the device — so EncodedLen avoids a full re-encode per replay.
	if err := b.forwardExtent(ds.memArea, rec.Abs, rec.EncodedLen()); err != nil {
		return err
	}
	if err := b.applyEntries(ds, rec.Entries); err != nil {
		return err
	}
	if err := b.persistCursors(ds, newLPN, rec.CoverOp); err != nil {
		return err
	}
	if b.inRecovery {
		b.st.RecoveryReplayOps.Add(1)
	}
	b.st.TxReplayed.Add(1)
	return nil
}

// forwardExtent replicates one log record's raw extent (read back from
// the device, split around the circular wrap) to replica mirrors.
func (b *Backend) forwardExtent(area logrec.Area, abs uint64, n int) error {
	for _, r := range area.Split(abs, n) {
		b.fwdBuf = slices.Grow(b.fwdBuf[:0], r.Len)[:r.Len]
		if err := b.dev.ReadAt(r.DevOff, b.fwdBuf); err != nil {
			return err
		}
		b.forwardRaw(r.DevOff, b.fwdBuf)
	}
	return nil
}

// applyEntries writes a transaction body's memory-log entries into the
// data area under the structure's seqlock (Algorithm 2's Write_Begin /
// Write_End run here, in the back-end, exactly as the paper specifies).
func (b *Backend) applyEntries(ds *dsReplay, entries []logrec.MemEntry) error {
	// Write_Begin: SN becomes odd while the structure is inconsistent.
	sn, err := b.dev.Load64(ds.snOff)
	if err != nil {
		return err
	}
	if err := b.dev.Store64(ds.snOff, sn+1); err != nil {
		return err
	}
	for i := range entries {
		e := &entries[i]
		val := e.Value
		if e.Flag == logrec.FlagOpRef {
			val, err = b.readArea(nil, ds.opArea, e.OpAbs+logrec.ParamsWireOff+uint64(e.SrcOff), int(e.Len))
			if err != nil {
				return err
			}
		}
		if AddrNode(e.Addr) != b.id {
			return fmt.Errorf("backend %d: replay of foreign address %#x", b.id, e.Addr)
		}
		off := AddrOff(e.Addr)
		if err := b.dev.WriteAt(off, val[:e.Len]); err != nil {
			return err
		}
		b.chargeBusy(b.prof.LocalNVMWrite(int(e.Len)))
	}
	if !b.lazy() {
		b.dev.PersistAll()
		b.chargeBusy(b.prof.PersistBarrier)
	}
	// Write_End: SN even again; readers revalidate against it.
	return b.dev.Store64(ds.snOff, sn+2)
}

// persistCursors advances the structure's durable (eager) or
// persistence-window (lazy) LPN/OPN words after a record is processed,
// clamped to the 2PC hold floor: cursors never advance past an
// unresolved prepare or an un-Ended commit record, so a restart always
// rescans them and prepared-but-unapplied state stays out of
// checkpoints (twopc.go).
func (b *Backend) persistCursors(ds *dsReplay, newLPN, coverOp uint64) error {
	if f, held := ds.holdFloor(); held && f < newLPN {
		newLPN = f
	}
	if !b.lazy() {
		// Persist the cursors (the LPN/OPN of §5.1).
		if err := b.dev.Store64(ds.auxOff+auxLPN, newLPN); err != nil {
			return err
		}
		if err := b.dev.Store64(ds.auxOff+auxOPN, coverOp); err != nil {
			return err
		}
		// Eager mode never leaves an unapplied durable suffix, so the
		// truncation points ride the cursors: writers gate on them with
		// exactly the values they used to read from the LPN/OPN.
		if err := b.dev.Store64(ds.auxOff+auxMemTrunc, newLPN); err != nil {
			return err
		}
		if err := b.dev.Store64(ds.auxOff+auxOpTrunc, coverOp); err != nil {
			return err
		}
		ds.memTrunc.Store(newLPN)
		ds.opTrunc.Store(coverOp)
		return nil
	}
	// Lazy mode: cursors advance with volatile writes placed in the
	// persistence window AFTER the entry writes above. A power
	// failure reverts a suffix of that window newest-first, so a
	// surviving LPN implies the entries below it survived — the next
	// checkpoint's PersistAll makes both durable together.
	if err := b.writeLE64(ds.auxOff+auxLPN, newLPN); err != nil {
		return err
	}
	return b.writeLE64(ds.auxOff+auxOPN, coverOp)
}

// bestCkpt decodes a structure's two checkpoint slots from its aux image
// and returns the newest record that passes every validity check: codec
// magic+CRC, slot ownership, area-geometry digest, and an epoch no newer
// than the current incarnation (a torn slot simply loses this round and
// the other slot wins).
func (b *Backend) bestCkpt(ds *dsReplay, aux []byte) (logrec.CkptRecord, bool) {
	want := logrec.AreaDigest(ds.memArea.Base, ds.memArea.Size,
		ds.opArea.Base, ds.opArea.Size)
	var best logrec.CkptRecord
	found := false
	for _, off := range [2]int{auxCkptA, auxCkptB} {
		rec, err := logrec.DecodeCkpt(aux[off : off+logrec.CkptSlotSize])
		if err != nil {
			continue
		}
		if rec.DSSlot != ds.slot || rec.AreaDigest != want || rec.Epoch > b.epoch {
			continue
		}
		if !found || rec.Seq > best.Seq {
			best, found = rec, true
		}
	}
	return best, found
}

// archiveOps scans the op log for records the mirrors have not seen and
// forwards them — raw for replica mirrors (same offsets), semantic for
// archive mirrors. Under compaction the scan runs even with no mirror
// attached: the cursor it advances (opSeen) is also the op-log
// truncation ceiling, so a mirror-less compacting back-end would
// otherwise never reclaim op-log space. Eager mode truncates on the
// cursors directly, so without a mirror it skips the scan (and its
// per-transaction decode work) entirely.
func (b *Backend) archiveOps(ds *dsReplay) {
	b.mu.Lock()
	forward := len(b.mirrors) > 0
	b.mu.Unlock()
	if !forward && !b.lazy() {
		return
	}
	chunk := 4 << 10
	for {
		n := chunk
		if uint64(n) > ds.opArea.Size {
			n = int(ds.opArea.Size)
		}
		var err error
		if b.scanBuf, err = b.readArea(b.scanBuf, ds.opArea, ds.opSeen, n); err != nil {
			b.setErr(err)
			return
		}
		// Sinks copy what they keep (MirrorSink), so the forwards below
		// may alias the scan buffer.
		buf := b.scanBuf
		pos := 0
		progressed := false
		for {
			// Only the record's validity and extent matter on this scan;
			// decode into the reused scratch (params land in the arena and
			// die at the Reset below) and forward the raw wire bytes.
			rec := &b.opScratch
			used, derr := logrec.DecodeOpInto(rec, buf[pos:], ds.opSeen, &b.decArena)
			b.decArena.Reset()
			if derr != nil {
				if errors.Is(derr, logrec.ErrShort) && !progressed && chunk < maxTxChunk && uint64(chunk) < ds.opArea.Size {
					chunk *= 2
					break
				}
				return
			}
			if forward {
				wire := buf[pos : pos+used]
				for _, r := range ds.opArea.Split(rec.Abs, used) {
					// Forward at physical offsets for replica mirrors.
					b.forwardRawOnly(r.DevOff, wire[:r.Len])
					wire = wire[r.Len:]
				}
				b.forwardOp(ds.slot, buf[pos:pos+used])
			}
			ds.opSeen += uint64(used)
			pos += used
			progressed = true
			if len(buf)-pos < 16 {
				break
			}
		}
		if !progressed {
			return
		}
	}
}

// countPendingOps counts valid op records at or above the OPN: operations
// acknowledged as persistent whose memory logs never arrived. Recovery
// hands these back to the owning front-end for re-execution (Case 2.c/3.c).
func (b *Backend) countPendingOps(ds *dsReplay) int {
	ops, err := b.PendingOps(ds.slot)
	if err != nil {
		return 0
	}
	return len(ops)
}

// PendingOps returns the decoded op-log records at or above the OPN for a
// slot, in append order.
func (b *Backend) PendingOps(slot uint16) ([]logrec.OpRecord, error) {
	b.mu.Lock()
	ds, ok := b.dss[slot]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown slot %d", slot)
	}
	var out []logrec.OpRecord
	abs := ds.opn.Load()
	chunk := 4 << 10
	for {
		n := chunk
		if uint64(n) > ds.opArea.Size {
			n = int(ds.opArea.Size)
		}
		buf, err := b.readArea(nil, ds.opArea, abs, n)
		if err != nil {
			return nil, err
		}
		pos := 0
		progressed := false
		for {
			rec, used, derr := logrec.DecodeOp(buf[pos:], abs)
			if derr != nil {
				if errors.Is(derr, logrec.ErrShort) && !progressed && chunk < maxTxChunk && uint64(chunk) < ds.opArea.Size {
					chunk *= 2
					break
				}
				return out, nil
			}
			out = append(out, rec)
			abs += uint64(used)
			pos += used
			progressed = true
			if len(buf)-pos < 16 {
				break
			}
		}
		if !progressed {
			return out, nil
		}
	}
}

// forwardRaw pushes a device range to every replica mirror and charges the
// back-end clock for the transfer (replication happens on the back-end's
// time, not the front-end's — §7.1's asynchronous replication).
func (b *Backend) forwardRaw(devOff uint64, data []byte) {
	b.mu.Lock()
	mirrors := append([]MirrorSink(nil), b.mirrors...)
	b.mu.Unlock()
	for _, m := range mirrors {
		if !m.WantsRaw() {
			continue
		}
		b.forwardCharge(len(data))
		if err := m.MirrorWrite(devOff, data); err != nil {
			b.setErr(err)
		}
	}
}

// forwardRawOnly is forwardRaw without the lock dance for the hot op path.
func (b *Backend) forwardRawOnly(devOff uint64, data []byte) {
	b.forwardRaw(devOff, data)
}

// forwardOp pushes one encoded op record to archive mirrors.
func (b *Backend) forwardOp(slot uint16, rec []byte) {
	b.mu.Lock()
	mirrors := append([]MirrorSink(nil), b.mirrors...)
	b.mu.Unlock()
	for _, m := range mirrors {
		if m.WantsRaw() {
			continue
		}
		b.forwardCharge(len(rec))
		if err := m.MirrorOp(slot, append([]byte(nil), rec...)); err != nil {
			b.setErr(err)
		}
	}
}

func le64at(b []byte, off int) uint64 {
	return uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 | uint64(b[off+3])<<24 |
		uint64(b[off+4])<<32 | uint64(b[off+5])<<40 | uint64(b[off+6])<<48 | uint64(b[off+7])<<56
}
