// Package nvm simulates a byte-addressable non-volatile memory device of
// the kind AsymNVM attaches to its back-end nodes (the paper used Intel
// Optane DC Persistent Memory in App Direct mode).
//
// The simulation keeps the two properties the paper's crash-consistency
// design actually depends on:
//
//   - byte-addressable random access, with media latency charged by the
//     caller (the RDMA layer or a local accessor), and
//   - a persistence window: bytes written but not yet flushed live in a
//     volatile window and may be lost — possibly partially, at a 64-byte
//     line granularity — when power fails. This is what forces the
//     framework to checksum transaction logs and validate them on restart.
//
// The device image is sparse: host memory follows the bytes a workload
// has written, not the simulated capacity.
package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// LineSize is the granularity at which a power failure can tear a write.
// Optane persists data in units no smaller than a cache line.
const LineSize = 64

// PageSize is the host-memory granularity of the device image. A page is
// allocated on its first non-zero write; until then it reads as zeros.
const PageSize = 4096

const pageMask = PageSize - 1

// ErrOutOfRange is returned for accesses beyond the device capacity.
var ErrOutOfRange = errors.New("nvm: access out of range")

// zeroPage backs reads of unmapped pages and the all-zero test of writes.
var zeroPage [PageSize]byte

// pending records one not-yet-persisted write: its range and where its
// undo image (the previous contents) sits in the device's undo log.
type pending struct {
	off uint64
	at  int // undo-log offset of the previous contents
	n   int
}

// Device is a simulated NVM DIMM: a flat byte space with explicit
// persistence points and power-failure injection.
//
// Writes become visible immediately (reads see them) but stay revertible
// until Persist or PersistAll is called; Crash reverts a random suffix of
// the unpersisted writes and may tear the oldest surviving one at a line
// boundary. All methods are safe for concurrent use.
type Device struct {
	mu      sync.RWMutex
	size    uint64
	pages   []*[PageSize]byte // nil: never written non-zero, reads as zeros
	mapped  int
	pend    []pending
	undo    []byte // undo images of pend, back to back
	crashes int
}

// NewDevice creates a device with the given capacity in bytes, zero-filled.
// Only the page table is allocated up front.
func NewDevice(size int) *Device {
	return &Device{size: uint64(size), pages: make([]*[PageSize]byte, (size+pageMask)/PageSize)}
}

// Size reports the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// MappedBytes reports the host memory held by the device image: the
// number of pages written non-zero so far, times PageSize.
func (d *Device) MappedBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.mapped * PageSize
}

// check validates an access range.
func (d *Device) check(off uint64, n int) error {
	if n < 0 || off > d.size || uint64(n) > d.size-off {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, d.size)
	}
	return nil
}

// read copies the image at off into buf; the range is already checked.
func (d *Device) read(off uint64, buf []byte) {
	for len(buf) > 0 {
		po := int(off & pageMask)
		var n int
		if p := d.pages[off/PageSize]; p != nil {
			n = copy(buf, p[po:])
		} else {
			n = copy(buf, zeroPage[po:])
		}
		buf = buf[n:]
		off += uint64(n)
	}
}

// write stores data at off without touching the persistence window. A
// chunk of zeros aimed at an unmapped page maps nothing.
func (d *Device) write(off uint64, data []byte) {
	for len(data) > 0 {
		po := int(off & pageMask)
		n := min(len(data), PageSize-po)
		chunk := data[:n]
		pi := off / PageSize
		p := d.pages[pi]
		if p == nil {
			if bytes.Equal(chunk, zeroPage[:n]) {
				data = data[n:]
				off += uint64(n)
				continue
			}
			p = new([PageSize]byte)
			d.pages[pi] = p
			d.mapped++
		}
		copy(p[po:], chunk)
		data = data[n:]
		off += uint64(n)
	}
}

// word returns the page slice holding the 8 bytes at off when they sit in
// one mapped page, else nil.
func (d *Device) word(off uint64) []byte {
	po := off & pageMask
	if po > PageSize-8 {
		return nil
	}
	if p := d.pages[off/PageSize]; p != nil {
		return p[po : po+8]
	}
	return nil
}

func (d *Device) load64(off uint64) uint64 {
	if w := d.word(off); w != nil {
		return le64(w)
	}
	var b [8]byte
	d.read(off, b[:])
	return le64(b[:])
}

func (d *Device) store64(off uint64, v uint64) {
	if w := d.word(off); w != nil {
		putLE64(w, v)
		return
	}
	var b [8]byte
	putLE64(b[:], v)
	d.write(off, b[:])
}

// ReadAt copies len(buf) bytes starting at off into buf. It always returns
// the most recent write, persisted or not (NVM is memory: loads see stores).
func (d *Device) ReadAt(off uint64, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.check(off, len(buf)); err != nil {
		return err
	}
	if po := off & pageMask; po+uint64(len(buf)) <= PageSize {
		if p := d.pages[off/PageSize]; p != nil {
			copy(buf, p[po:])
		} else {
			clear(buf)
		}
		return nil
	}
	d.read(off, buf)
	return nil
}

// WriteAt stores data at off. The write is immediately visible but not yet
// durable; it joins the persistence window until Persist/PersistAll.
func (d *Device) WriteAt(off uint64, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, len(data)); err != nil {
		return err
	}
	at := len(d.undo)
	d.undo = slices.Grow(d.undo, len(data))[:at+len(data)]
	old := d.undo[at:] // filled below from the current image
	if po := off & pageMask; po+uint64(len(data)) <= PageSize {
		if p := d.pages[off/PageSize]; p != nil {
			copy(old, p[po:])
			copy(p[po:], data)
			d.pend = append(d.pend, pending{off: off, at: at, n: len(data)})
			return nil
		}
	}
	d.read(off, old)
	d.pend = append(d.pend, pending{off: off, at: at, n: len(data)})
	d.write(off, data)
	return nil
}

// WritePersist stores data and makes exactly that range durable. It models
// a one-sided RDMA write whose acknowledgement implies the data reached the
// persistence domain, and local writes followed by a ranged flush. Unrelated
// writes elsewhere in the volatile window stay revertible — durability is a
// property of the acknowledged range, not of the whole device.
func (d *Device) WritePersist(off uint64, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, len(data)); err != nil {
		return err
	}
	d.write(off, data)
	d.sealRange(off, len(data))
	return nil
}

// PersistAll drains the persistence window: every prior write becomes
// durable and can no longer be lost by Crash.
func (d *Device) PersistAll() {
	d.mu.Lock()
	d.resetWindow()
	d.mu.Unlock()
}

// resetWindow empties the persistence window, keeping the undo log's
// capacity for the next one.
func (d *Device) resetWindow() {
	d.pend = d.pend[:0]
	d.undo = d.undo[:0]
}

// PendingWrites reports how many writes are still in the volatile window.
func (d *Device) PendingWrites() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pend)
}

// VolatileBytes reports how many bytes of [off, off+n) are covered by the
// volatile persistence window — visible to reads but still revertible by a
// power failure. Overlapping pending writes are counted once. Tests use it
// to distinguish a truncated (unacknowledged) RDMA write, which must stay
// volatile, from an acknowledged one, which must not.
func (d *Device) VolatileBytes(off uint64, n int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if n <= 0 {
		return 0
	}
	covered := make([]bool, n)
	total := 0
	for _, p := range d.pend {
		lo, hi := p.off, p.off+uint64(p.n)
		if hi <= off || lo >= off+uint64(n) {
			continue
		}
		if lo < off {
			lo = off
		}
		if hi > off+uint64(n) {
			hi = off + uint64(n)
		}
		for i := lo - off; i < hi-off; i++ {
			if !covered[i] {
				covered[i] = true
				total++
			}
		}
	}
	return total
}

// Crashes reports how many power failures the device has absorbed.
func (d *Device) Crashes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.crashes
}

// Crash simulates a power failure. A random suffix of the unpersisted
// writes is lost (reverted, newest first), and the oldest lost write may
// be torn: a prefix of its lines survives. rng drives the randomness so
// tests can be deterministic; a nil rng loses the entire window untorn.
// It returns the number of writes fully or partially lost.
func (d *Device) Crash(rng *rand.Rand) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashes++
	n := len(d.pend)
	if n == 0 {
		return 0
	}
	lose := n
	tear := false
	if rng != nil {
		lose = 1 + rng.Intn(n) // lose at least the newest write
		tear = rng.Intn(2) == 0
	}
	// Revert newest-first so overlapping writes unwind correctly.
	for i := n - 1; i >= n-lose; i-- {
		p := d.pend[i]
		old := d.undo[p.at : p.at+p.n]
		if tear && i == n-lose && p.n > LineSize {
			// Tear: a prefix of whole lines of the new data survives.
			keep := (rng.Intn(p.n/LineSize + 1)) * LineSize
			d.write(p.off+uint64(keep), old[keep:])
			continue
		}
		d.write(p.off, old)
	}
	d.resetWindow()
	return lose
}

// CopyFrom makes d's image byte-identical to src's and clears d's
// persistence window (src's unpersisted writes arrive as durable bytes).
// Only src's mapped pages are copied; d's other pages are dropped. Both
// devices must have the same capacity. Mirror seeding uses it as the
// initial full sync a real deployment performs once at attach time.
func (d *Device) CopyFrom(src *Device) error {
	if d == src {
		return nil
	}
	src.mu.RLock()
	defer src.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.size != src.size {
		return fmt.Errorf("nvm: copy from a %d-byte device onto %d bytes", src.size, d.size)
	}
	for i, sp := range src.pages {
		switch dp := d.pages[i]; {
		case sp == nil:
			d.pages[i] = nil
		case dp == nil:
			np := *sp
			d.pages[i] = &np
		default:
			*dp = *sp
		}
	}
	d.mapped = src.mapped
	d.resetWindow()
	return nil
}

// sealRange makes the current contents of [off, off+n) immune to Crash by
// rewriting the overlapping parts of every pending undo image. Atomic verbs
// use it: they are durable on return even though earlier plain writes to
// the same lines are still volatile.
func (d *Device) sealRange(off uint64, n int) {
	end := off + uint64(n)
	for _, p := range d.pend {
		pEnd := p.off + uint64(p.n)
		if p.off >= end || pEnd <= off {
			continue
		}
		lo := max(p.off, off)
		hi := min(pEnd, end)
		at := p.at + int(lo-p.off)
		d.read(lo, d.undo[at:at+int(hi-lo)])
	}
}

// CompareAndSwap64 atomically (under the device lock) compares the 8 bytes
// at off, interpreted little-endian, with old and writes new if they match.
// The result is durable immediately, modelling an RDMA atomic that is
// acknowledged from the persistence domain. It returns the previous value
// and whether the swap happened.
func (d *Device) CompareAndSwap64(off uint64, old, new uint64) (uint64, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, 8); err != nil {
		return 0, false, err
	}
	cur := d.load64(off)
	if cur != old {
		return cur, false, nil
	}
	d.store64(off, new)
	d.sealRange(off, 8)
	return cur, true, nil
}

// FetchAdd64 atomically adds delta to the 8 bytes at off and returns the
// previous value. Durable immediately.
func (d *Device) FetchAdd64(off uint64, delta uint64) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, 8); err != nil {
		return 0, err
	}
	cur := d.load64(off)
	d.store64(off, cur+delta)
	d.sealRange(off, 8)
	return cur, nil
}

// Load64 atomically reads the 8 bytes at off as a little-endian uint64.
func (d *Device) Load64(off uint64) (uint64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.check(off, 8); err != nil {
		return 0, err
	}
	return d.load64(off), nil
}

// Store64 atomically writes v at off, durable immediately.
func (d *Device) Store64(off uint64, v uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, 8); err != nil {
		return err
	}
	d.store64(off, v)
	d.sealRange(off, 8)
	return nil
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
