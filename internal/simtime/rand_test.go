package simtime

import "testing"

// TestSplitMix64KnownAnswers pins the first outputs of every stream
// and hash built on SplitMix64 at seed 42. Seeded workloads, retry
// schedules, soak runs, trace samples and crash-check programs all
// replay from these exact values, so any change to the step that
// shifts one of them fails here.
func TestSplitMix64KnownAnswers(t *testing.T) {
	check := func(form string, got []uint64, want ...uint64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s output %d = %#x, want %#x", form, i, got[i], want[i])
			}
		}
	}

	// Rand: NewRand mixes the seed into the initial state.
	r := NewRand(42)
	check("Rand", []uint64{r.Uint64(), r.Uint64(), r.Uint64()},
		0x1e8cf85f253a581e, 0x3ea68129e923e53a, 0xa080a077c9e9fd79)

	// Raw-state stream: the client's retry jitter and the soak
	// harness's schedule generator start from the seed itself.
	s := uint64(42)
	check("stream", []uint64{SplitMix64(&s), SplitMix64(&s), SplitMix64(&s)},
		0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52)

	// Hash of seed^index: the request-trace sampler's coin.
	var trace []uint64
	for id := uint64(0); id < 3; id++ {
		h := 42 ^ id
		trace = append(trace, SplitMix64(&h))
	}
	check("sampler hash", trace, 0xbdd732262feb6e95, 0xba69ec90eb4fef88, 0x369eae0b0ca19112)

	// Nested hash: the crash-check workload's per-op word.
	var ops []uint64
	for i := 0; i < 3; i++ {
		x := uint64(i) + 1
		x = 42 ^ SplitMix64(&x)
		ops = append(ops, SplitMix64(&x))
	}
	check("op hash", ops, 0x7eb3b394ac9efc29, 0x1db2233eb3bcaeb3, 0x43aa8652ad94b3a2)
}
