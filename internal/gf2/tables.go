package gf2

// ByteTables compiles the matrix into 256-entry lookup tables, one per
// input byte: the map is linear over GF(2), so the image of an address
// is the XOR of the images of its bytes —
//
//	Apply(a) == tabs[0][a&0xff] ^ tabs[1][a>>8&0xff] ^ ...
//
// Table t occupies tabs[t<<8 : t<<8+256].  Replacing the per-row parity
// network with two or three table loads is how the simulation engines
// keep polynomial placements off the critical path: cache.NewPlacer
// compiles the tables once per placement for every engine.  Hardware
// would instead synthesise the XOR trees that GateDescription reports.
func (bm *BitMatrix) ByteTables() []uint32 {
	ntab := (bm.in + 7) / 8
	tabs := make([]uint32, ntab*256)
	for t := 0; t < ntab; t++ {
		for v := 0; v < 256; v++ {
			tabs[t<<8|v] = uint32(bm.Apply(uint64(v) << uint(8*t)))
		}
	}
	return tabs
}
