package dist

import (
	"testing"

	"mheta/internal/vclock"
)

func TestHashDeterministicAndOrderSensitive(t *testing.T) {
	d := Distribution{3, 1, 4, 1, 5}
	if d.Hash() != d.Hash() || d.Hash() != d.Clone().Hash() {
		t.Fatal("Hash not deterministic")
	}
	pairs := [][2]Distribution{
		{{1, 2}, {2, 1}},       // transposition
		{{1}, {1, 0}},          // length matters
		{{0, 3}, {3, 0}},       // zeros are positional
		{{10, 10}, {10, 11}},   // small delta
		{{0, 0, 0}, {0, 0, 1}}, // trailing change
	}
	for _, p := range pairs {
		if p[0].Hash() == p[1].Hash() {
			t.Errorf("Hash(%v) == Hash(%v)", p[0], p[1])
		}
	}
}

func TestHashNoCollisionsOverSearchSpace(t *testing.T) {
	// The memo keys GBS probes and stochastic candidates by Hash alone, so
	// a collision would silently return the wrong time. Check a realistic
	// population: thousands of random valid 8-node distributions.
	nz := vclock.NewNoise(99, 0)
	seen := make(map[uint64]string)
	const total = 1 << 16
	for i := 0; i < 5000; i++ {
		d := make(Distribution, 8)
		rem := total
		for j := 0; j < len(d)-1; j++ {
			d[j] = int(nz.Float64() * float64(rem) / 2)
			rem -= d[j]
		}
		d[len(d)-1] = rem
		h := d.Hash()
		if prev, ok := seen[h]; ok && prev != d.String() {
			t.Fatalf("collision: %v and %s share hash %#x", d, prev, h)
		}
		seen[h] = d.String()
	}
}

func TestHashZeroAlloc(t *testing.T) {
	d := Block(100000, 16)
	if allocs := testing.AllocsPerRun(200, func() { _ = d.Hash() }); allocs != 0 {
		t.Fatalf("Hash allocates %v/op, want 0", allocs)
	}
}
