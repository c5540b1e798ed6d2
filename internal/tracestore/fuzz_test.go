package tracestore

import (
	"bytes"
	"testing"
)

// FuzzDecodePacked feeds arbitrary blobs to the on-disk packed-trace
// decoder, the one parser that reads bytes this process did not just
// write.  It must never panic, never accept more records than asked
// for, and every blob it accepts must re-encode byte-identically.
func FuzzDecodePacked(f *testing.F) {
	for _, n := range []uint64{0, 1, 63, 64, 65, 200} {
		addrs := make([]uint64, n)
		stores := make([]uint64, (n+63)/64)
		for i := range addrs {
			addrs[i] = uint64(i) * 0x9E3779B97F4A7C15
			if i%3 == 0 {
				stores[i/64] |= 1 << (i % 64)
			}
		}
		blob := encodePacked(addrs, stores, n)
		f.Add(blob, n)
		f.Add(blob, n+1)
		if n > 0 {
			f.Add(blob, n-1)
			f.Add(blob[:len(blob)-1], n)
		}
	}
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, ^uint64(0))
	f.Fuzz(func(t *testing.T, blob []byte, max uint64) {
		addrs, stores, n, ok := decodePacked(blob, max)
		if !ok {
			return
		}
		if n > max {
			t.Fatalf("accepted %d records, more than the %d requested", n, max)
		}
		if got := encodePacked(addrs, stores, n); !bytes.Equal(got, blob) {
			t.Fatalf("accepted blob does not re-encode identically:\nin  %x\nout %x", blob, got)
		}
	})
}
