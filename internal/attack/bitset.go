package attack

// bitset is a fixed-width set of region ids backed by 64-bit words. All
// operands of the binary operations must share one width (they are always
// sized by the same region count).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) or(c bitset) {
	for i, w := range c {
		b[i] |= w
	}
}

// andNot clears every bit of c from b.
func (b bitset) andNot(c bitset) {
	for i := range b {
		b[i] &^= c[i]
	}
}

func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) clone() bitset { return append(bitset(nil), b...) }
