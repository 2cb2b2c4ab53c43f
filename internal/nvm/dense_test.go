package nvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// denseDevice is the reference model the paged Device must match: one flat
// byte slice and a fresh undo image per pending write, the device's
// original representation.
type denseDevice struct {
	data []byte
	pend []densePending
}

type densePending struct {
	off uint64
	old []byte
}

func newDense(size int) *denseDevice { return &denseDevice{data: make([]byte, size)} }

func (d *denseDevice) writeAt(off uint64, data []byte) {
	old := append([]byte(nil), d.data[off:off+uint64(len(data))]...)
	d.pend = append(d.pend, densePending{off: off, old: old})
	copy(d.data[off:], data)
}

func (d *denseDevice) writePersist(off uint64, data []byte) {
	copy(d.data[off:], data)
	d.seal(off, len(data))
}

func (d *denseDevice) seal(off uint64, n int) {
	end := off + uint64(n)
	for i := range d.pend {
		p := &d.pend[i]
		pEnd := p.off + uint64(len(p.old))
		if p.off >= end || pEnd <= off {
			continue
		}
		lo, hi := max(p.off, off), min(pEnd, end)
		copy(p.old[lo-p.off:hi-p.off], d.data[lo:hi])
	}
}

func (d *denseDevice) volatileBytes(off uint64, n int) int {
	covered := make([]bool, n)
	total := 0
	for _, p := range d.pend {
		lo, hi := max(p.off, off), min(p.off+uint64(len(p.old)), off+uint64(n))
		for i := lo; i < hi; i++ {
			if !covered[i-off] {
				covered[i-off] = true
				total++
			}
		}
	}
	return total
}

func (d *denseDevice) crash(rng *rand.Rand) int {
	n := len(d.pend)
	if n == 0 {
		return 0
	}
	lose, tear := n, false
	if rng != nil {
		lose = 1 + rng.Intn(n)
		tear = rng.Intn(2) == 0
	}
	for i := n - 1; i >= n-lose; i-- {
		p := d.pend[i]
		if tear && i == n-lose && len(p.old) > LineSize {
			keep := (rng.Intn(len(p.old)/LineSize + 1)) * LineSize
			copy(d.data[p.off+uint64(keep):], p.old[keep:])
			continue
		}
		copy(d.data[p.off:], p.old)
	}
	d.pend = d.pend[:0]
	return lose
}

func (d *denseDevice) load64(off uint64) uint64 { return binary.LittleEndian.Uint64(d.data[off:]) }

func (d *denseDevice) store64(off, v uint64) {
	binary.LittleEndian.PutUint64(d.data[off:], v)
	d.seal(off, 8)
}

// TestPagedMatchesDense drives the paged device and the dense reference
// with the same seeded random operation sequences — writes that straddle
// pages, zero writes to unmapped pages, ranged persists, atomics on page
// boundaries, full persists and torn crashes — and checks after every step
// that images, Crash results, PendingWrites and VolatileBytes agree.
func TestPagedMatchesDense(t *testing.T) {
	const size = 6*PageSize + 100 // a partial last page
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pd, dd := NewDevice(size), newDense(size)
		for step := 0; step < 400; step++ {
			what := ""
			off := uint64(rng.Intn(size))
			if rng.Intn(4) == 0 { // aim at a page edge
				off = uint64((1+rng.Intn(size/PageSize))*PageSize - rng.Intn(12))
			}
			n := 1 + rng.Intn(2*PageSize+200)
			if off+uint64(n) > size {
				n = int(size - off)
			}
			data := make([]byte, n)
			if rng.Intn(3) > 0 {
				rng.Read(data)
			}
			switch op := rng.Intn(20); {
			case op < 8:
				what = fmt.Sprintf("WriteAt(%d, %d)", off, n)
				mustOK(t, pd.WriteAt(off, data))
				dd.writeAt(off, data)
			case op < 12:
				what = fmt.Sprintf("WritePersist(%d, %d)", off, n)
				mustOK(t, pd.WritePersist(off, data))
				dd.writePersist(off, data)
			case op < 16:
				off = min(off, size-8)
				v := rng.Uint64()
				switch op {
				case 12:
					what = fmt.Sprintf("Store64(%d)", off)
					mustOK(t, pd.Store64(off, v))
					dd.store64(off, v)
				case 13:
					what = fmt.Sprintf("FetchAdd64(%d)", off)
					prev, err := pd.FetchAdd64(off, v)
					mustOK(t, err)
					want := dd.load64(off)
					if prev != want {
						t.Fatalf("seed %d step %d: FetchAdd64 prev %d, want %d", seed, step, prev, want)
					}
					dd.store64(off, want+v)
				default:
					what = fmt.Sprintf("CompareAndSwap64(%d)", off)
					old := dd.load64(off)
					if op == 15 {
						old = v // mostly a miss
					}
					cur, ok, err := pd.CompareAndSwap64(off, old, v)
					mustOK(t, err)
					want := dd.load64(off)
					if cur != want || ok != (want == old) {
						t.Fatalf("seed %d step %d: CAS = (%d, %v), want (%d, %v)", seed, step, cur, ok, want, want == old)
					}
					if ok {
						dd.store64(off, v)
					}
				}
				got, err := pd.Load64(off)
				mustOK(t, err)
				if got != dd.load64(off) {
					t.Fatalf("seed %d step %d: Load64 = %d, want %d", seed, step, got, dd.load64(off))
				}
			case op < 17:
				what = "PersistAll"
				pd.PersistAll()
				dd.pend = dd.pend[:0]
			default:
				what = "Crash"
				var crng, drng *rand.Rand
				if op < 19 {
					cs := rng.Int63()
					crng, drng = rand.New(rand.NewSource(cs)), rand.New(rand.NewSource(cs))
				}
				if got, want := pd.Crash(crng), dd.crash(drng); got != want {
					t.Fatalf("seed %d step %d: Crash lost %d writes, want %d", seed, step, got, want)
				}
			}
			if !bytes.Equal(image(pd), dd.data) {
				t.Fatalf("seed %d step %d: image differs after %s", seed, step, what)
			}
			if got, want := pd.PendingWrites(), len(dd.pend); got != want {
				t.Fatalf("seed %d step %d: PendingWrites = %d, want %d after %s", seed, step, got, want, what)
			}
			vo := uint64(rng.Intn(size))
			vn := 1 + rng.Intn(int(size-vo))
			if got, want := pd.VolatileBytes(vo, vn), dd.volatileBytes(vo, vn); got != want {
				t.Fatalf("seed %d step %d: VolatileBytes(%d, %d) = %d, want %d after %s", seed, step, vo, vn, got, want, what)
			}
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
