package fleet

import (
	"testing"

	"medsec/internal/design"
)

// TestLabSteadyStateAllocs pins the cost of one full session on a
// worker's pooled lab. Re-arming the pooled link is gated at zero
// allocations by design's TestSessionRearmAllocs; the protocol run
// itself still allocates its wire messages, and this ceiling pins that
// cost so it cannot silently regress (it was ~50 allocations per
// session when pinned; the bound leaves headroom for small protocol
// changes, not for a leak back to per-session pair construction).
func TestLabSteadyStateAllocs(t *testing.T) {
	cfg := testFleet(4)
	cache := design.NewCache()
	noms, err := nominals(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	l := &lab{cache: cache, sess: design.NewSession(nil)}
	dp := cfg.deviceParams(0)
	st, err := cache.Build(dp.point)
	if err != nil {
		t.Fatal(err)
	}
	dev, rdr, err := st.Parties(1)
	if err != nil {
		t.Fatal(err)
	}

	out := deviceOutcome{latencyUS: make([]int64, 0, 64)}
	n := testing.AllocsPerRun(20, func() {
		out.latencyUS = out.latencyUS[:0]
		if err := l.session(st, noms[0], dev, rdr, 12345, false, &out); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 64
	if n > ceiling {
		t.Fatalf("session allocates %v times on the pooled lab, ceiling is %d", n, ceiling)
	}
}
