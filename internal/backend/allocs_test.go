package backend

import (
	"runtime"
	"testing"

	"asymnvm/internal/logrec"
	"asymnvm/internal/nvm"
)

// CI gate for the replayer's steady state: an idle log scan (every kick
// rescans each structure's log tail) and the replay of a committed
// transaction reuse the back-end's scan and forward buffers instead of
// allocating per chunk. AllocsPerRun is deterministic, so this runs in
// plain `go test`.
func TestReplaySlotZeroAllocs(t *testing.T) {
	dev := nvm.NewDevice(8 << 20)
	b, err := New(dev, Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	l := b.Layout()
	aux := l.DataBase
	memBase := l.DataBase + 4096
	opBase := memBase + 65536
	target := opBase + 65536
	auxImg := make([]byte, AuxSize)
	for off, v := range map[int]uint64{AuxMemLogBaseOff: memBase, AuxMemLogSizeOff: 65536, AuxOpLogBaseOff: opBase, AuxOpLogSizeOff: 65536} {
		for i := 0; i < 8; i++ {
			auxImg[off+i] = byte(v >> (8 * i))
		}
	}
	_ = dev.WritePersist(aux, auxImg)
	entry, err := EncodeNameEntry(NameEntry{Used: true, Type: TypeBST, Name: "allocs", Aux: GlobalAddr(0, aux)})
	if err != nil {
		t.Fatal(err)
	}
	_ = dev.WritePersist(l.NameEntryOff(0), entry)
	if err := b.refreshSlots(); err != nil {
		t.Fatal(err)
	}
	ds := b.dss[0]

	// Pre-encode the transactions the measured runs append, one per run,
	// so only the replayer's own allocations are counted.
	const runs = 200
	var recs [][]byte
	abs := uint64(0)
	for i := 0; i <= runs+2; i++ {
		tx := logrec.TxRecord{DSSlot: 0, Abs: abs, Entries: []logrec.MemEntry{
			{Flag: logrec.FlagInline, Addr: GlobalAddr(0, target+uint64(i%8)*8), Len: 8, Value: []byte("ABCDEFGH")},
		}}
		w := tx.Encode()
		recs = append(recs, w)
		abs += uint64(len(w))
	}
	next, tail := 0, uint64(0)
	replayOne := func() {
		_ = dev.WritePersist(memBase+tail, recs[next])
		tail += uint64(len(recs[next]))
		next++
		if _, err := b.replaySlot(ds); err != nil {
			t.Fatal(err)
		}
	}
	replayOne() // warm the buffers, arena and undo log

	if a := testing.AllocsPerRun(runs, replayOne); a != 0 {
		t.Errorf("replaying one transaction allocates %.1f/op, want 0", a)
	}
	if got := ds.lpn.Load(); got != tail {
		t.Fatalf("LPN = %d after replay, want the log tail %d", got, tail)
	}
	idle := func() {
		if _, err := b.replaySlot(ds); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(runs, idle); a != 0 {
		t.Errorf("an idle log scan allocates %.1f/op, want 0", a)
	}
}

// TestFormatHeapCeiling: the simulated device's host memory follows the
// bytes written, not its capacity. A formatted 1 GiB back-end — header,
// zeroed metadata regions, the in-memory block bitmap — must cost at most
// 16 MiB of heap (the page table alone is 2 MiB).
func TestFormatHeapCeiling(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dev := nvm.NewDevice(1 << 30)
	b, err := New(dev, Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(b)
	const ceiling = 16 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > ceiling {
		t.Fatalf("formatted 1 GiB device holds %d heap bytes, want <= %d", grew, ceiling)
	}
	if m := dev.MappedBytes(); m > 4*nvm.PageSize {
		t.Fatalf("formatting mapped %d bytes of device pages, want only the metadata's", m)
	}
}
