package main

import (
	"bytes"
	"encoding/binary"
)

// model is the benchmark's own record of every acknowledged write: the
// version of the last value acknowledged for each key, 0 for a key never
// written. Values are derived from (key, version), so checking a read
// regenerates the expected bytes instead of storing them.
type model struct {
	ver     []uint32 // indexed by key, keys in [1, len-1]
	valLen  int
	next    uint32 // next version to hand out
	scratch []byte
	// corruptNext makes the next check of a written key first flip that
	// key's recorded version, so the check must fail. Tests set it to
	// prove the output checks bite.
	corruptNext bool
}

func newModel(keys uint64, valLen int) *model {
	return &model{ver: make([]uint32, keys+1), valLen: valLen, next: 1, scratch: make([]byte, valLen)}
}

// value fills dst (len valLen) with the value of key at version ver:
// key and version in the first 12 bytes, then a pattern derived from both.
func value(dst []byte, key uint64, ver uint32) {
	binary.LittleEndian.PutUint64(dst, key)
	binary.LittleEndian.PutUint32(dst[8:], ver)
	x := key*0x9E3779B97F4A7C15 ^ uint64(ver)*0xBF58476D1CE4E5B9
	for i := 12; i < len(dst); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = byte(x)
	}
}

// stage returns a fresh value for key and the version it carries; the
// model adopts it only when the write is acknowledged.
func (m *model) stage(dst []byte, key uint64) uint32 {
	v := m.next
	m.next++
	value(dst, key, v)
	return v
}

// ack records an acknowledged write.
func (m *model) ack(key uint64, ver uint32) { m.ver[key] = ver }

// check reports whether a read of key returned exactly the last
// acknowledged value (or absence, for a key never written).
func (m *model) check(key uint64, got []byte, found bool) bool {
	v := m.ver[key]
	if v == 0 {
		return !found
	}
	if m.corruptNext {
		m.corruptNext = false
		v ^= 1 << 30
		m.ver[key] = v
	}
	if !found || len(got) != m.valLen {
		return false
	}
	value(m.scratch, key, v)
	return bytes.Equal(got, m.scratch)
}

// liveUserBytes is keys plus values of every written key.
func (m *model) liveUserBytes() int64 {
	var n int64
	for _, v := range m.ver {
		if v != 0 {
			n += int64(8 + m.valLen)
		}
	}
	return n
}
