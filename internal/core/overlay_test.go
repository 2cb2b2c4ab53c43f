package core

import (
	"bytes"
	"testing"

	"asymnvm/internal/backend"
)

// TestRetiredOverlayUnitsReadOwnWrites pins the overlay's retirement
// contract with a replayer that never runs: units of flush marks older
// than the newest pruneKeep stop being overlay hits (their reads are
// charged as fetches, whatever the replayer's progress), yet every read
// path still returns the writer's newest bytes rather than the stale NVM
// image.
func TestRetiredOverlayUnitsReadOwnWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
	}{
		{"uncached", ModeR()},
		{"cached-pipelined", ModeRC(1 << 20).WithPipeline(8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 16<<20)
			fe := r.frontend(1, tc.mode)
			c := r.connect(fe)
			h, err := c.Create("retire", backend.TypeBST, smallOpts)
			if err != nil {
				t.Fatal(err)
			}
			const units, unit = pruneMarks + 8, 64
			addrs := make([]uint64, units)
			for i := range addrs {
				if addrs[i], err = h.Alloc(unit); err != nil {
					t.Fatal(err)
				}
			}
			// Nothing is applied from here on: retired units can only
			// be read correctly from the overlay's bytes.
			r.bk.Halt()
			want := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, unit) }
			for i, a := range addrs {
				if _, err := h.OpLog(1, nil); err != nil {
					t.Fatal(err)
				}
				if err := h.Write(a, want(i)); err != nil {
					t.Fatal(err)
				}
				if err := h.EndOp(); err != nil {
					t.Fatal(err)
				}
			}
			if h.retired == 0 || len(h.marks) != units {
				t.Fatalf("retired %d of %d marks, want some retired and none dropped", h.retired, len(h.marks))
			}
			// Posted round first (so the cached variant fetches there),
			// then the synchronous multi-get, then single reads.
			before := fe.Stats().Snapshot()
			p, err := h.PostReadMulti(addrs, unit, true)
			if err != nil {
				t.Fatal(err)
			}
			posted, err := p.Settle()
			if err != nil {
				t.Fatal(err)
			}
			if got := fe.Stats().Snapshot().Sub(before).BytesRead; got != int64(h.retired*unit) {
				t.Fatalf("fetched %d bytes, want the %d retired units only", got, h.retired)
			}
			multi, err := h.ReadMulti(addrs, unit, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range addrs {
				single, err := h.Read(a, unit, true)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(posted[i], want(i)) || !bytes.Equal(multi[i], want(i)) || !bytes.Equal(single, want(i)) {
					t.Fatalf("unit %d read back stale: posted %v multi %v single %v", i,
						bytes.Equal(posted[i], want(i)), bytes.Equal(multi[i], want(i)), bytes.Equal(single, want(i)))
				}
			}
		})
	}
}
