package mirror

import (
	"bytes"
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/core"
	"asymnvm/internal/nvm"
)

var prof = clock.ZeroProfile()

var smallOpts = core.CreateOptions{MemLogSize: 256 << 10, OpLogSize: 128 << 10}

func newPrimary(t *testing.T) (*backend.Backend, *nvm.Device) {
	t.Helper()
	dev := nvm.NewDevice(16 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	return bk, dev
}

func writeOps(t *testing.T, bk *backend.Backend, name string, vals []byte) (uint64, *core.Handle) {
	t.Helper()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: core.ModeR(), Profile: &prof})
	c, err := fe.Connect(bk)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Create(name, backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if _, err := h.OpLog(1, []byte{v}); err != nil {
			t.Fatal(err)
		}
		if err := h.Write(node, bytes.Repeat([]byte{v}, 64)); err != nil {
			t.Fatal(err)
		}
		if err := h.WriteRoot(node); err != nil {
			t.Fatal(err)
		}
		if err := h.EndOp(); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	return node, h
}

func TestReplicaPromotion(t *testing.T) {
	bk, _ := newPrimary(t)
	bk.Start()
	mdev := nvm.NewDevice(16 << 20)
	rep, err := NewReplica(mdev, bk, backend.Options{Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	node, _ := writeOps(t, bk, "repl", []byte{1, 2, 3})
	bk.Stop() // drains: replication forwarded, mirror kicked
	if err := bk.ReplicationError(); err != nil {
		t.Fatal(err)
	}

	// Primary is gone for good; promote the replica.
	nb, err := rep.Promote(backend.Options{Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	nb.Start()
	defer nb.Stop()
	if nb.ID() != bk.ID() {
		t.Fatal("promoted back-end must keep the primary's node id")
	}
	fe := core.NewFrontend(core.FrontendOptions{ID: 2, Mode: core.ModeR(), Profile: &prof})
	c, err := fe.Connect(nb)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Open("repl", false)
	if err != nil {
		t.Fatal(err)
	}
	root, err := h.ReadRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root != node {
		t.Fatalf("promoted root %#x, want %#x", root, node)
	}
	got, err := h.Read(node, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatalf("promoted replica holds %d, want last committed 3", got[0])
	}
}

func TestReplicaContinuesAfterPromotion(t *testing.T) {
	bk, _ := newPrimary(t)
	bk.Start()
	mdev := nvm.NewDevice(16 << 20)
	rep, err := NewReplica(mdev, bk, backend.Options{Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	writeOps(t, bk, "cont", []byte{7})
	bk.Stop()

	nb, err := rep.Promote(backend.Options{Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	nb.Start()
	defer nb.Stop()
	// The new primary accepts new writers.
	fe := core.NewFrontend(core.FrontendOptions{ID: 3, Mode: core.ModeR(), Profile: &prof})
	c, err := fe.Connect(nb)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Open("cont", true)
	if err != nil {
		t.Fatal(err)
	}
	node, err := h.ReadRoot()
	if err != nil || node == 0 {
		t.Fatalf("root: %#x err=%v", node, err)
	}
	if _, err := h.OpLog(1, []byte{8}); err != nil {
		t.Fatal(err)
	}
	if err := h.Write(node, bytes.Repeat([]byte{8}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := h.EndOp(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	got, _ := h.Read(node, 64, false)
	if got[0] != 8 {
		t.Fatal("write on promoted back-end lost")
	}
}

func TestArchiveCollectsOps(t *testing.T) {
	bk, _ := newPrimary(t)
	bk.Start()
	adev := nvm.NewDevice(4 << 20)
	arch, err := NewArchive(adev, bk, nil, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	writeOps(t, bk, "arch", []byte{1, 2, 3, 4, 5})
	bk.Stop()
	if err := bk.ReplicationError(); err != nil {
		t.Fatal(err)
	}
	ops, err := arch.Ops()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 5 {
		t.Fatalf("archived %d ops, want 5", len(ops))
	}
	for i, op := range ops {
		if op.Rec.OpType != 1 || len(op.Rec.Params) != 1 || op.Rec.Params[0] != byte(i+1) {
			t.Fatalf("op %d malformed: %+v", i, op.Rec)
		}
	}
}

func TestArchiveSurvivesReopen(t *testing.T) {
	bk, _ := newPrimary(t)
	bk.Start()
	adev := nvm.NewDevice(4 << 20)
	if _, err := NewArchive(adev, bk, nil, nil, prof); err != nil {
		t.Fatal(err)
	}
	writeOps(t, bk, "persist", []byte{9, 9})
	bk.Stop()

	arch2, err := NewArchive(adev, nil, nil, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := arch2.Ops()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("reopened archive has %d ops, want 2", len(ops))
	}
}

// TestReplicaSeedMapsNoMoreThanPrimary: seeding copies only the pages
// the primary has written, so a replica's device never holds more host
// memory than its primary's — whether the primary is fresh or populated.
func TestReplicaSeedMapsNoMoreThanPrimary(t *testing.T) {
	bk, dev := newPrimary(t)
	rdev := nvm.NewDevice(int(dev.Size()))
	rep, err := NewReplica(rdev, bk, backend.Options{Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rdev.MappedBytes(), dev.MappedBytes(); got > want || want == 0 {
		t.Fatalf("fresh primary maps %d bytes, its replica %d", want, got)
	}
	rep.Stop()

	bk.Start()
	defer bk.Stop()
	writeOps(t, bk, "seeded", []byte{1, 2, 3})
	rdev2 := nvm.NewDevice(int(dev.Size()))
	rep2, err := NewReplica(rdev2, bk, backend.Options{Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Stop()
	if got, want := rdev2.MappedBytes(), dev.MappedBytes(); got > want || got > 64*nvm.PageSize {
		t.Fatalf("populated primary maps %d bytes, its replica %d", want, got)
	}
}
