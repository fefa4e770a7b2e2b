package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"medsec/internal/design"
)

// TestHospitalFleetReportPinned freezes the rendered report of the
// built-in 4-cohort fleet at 200 devices. The digests were computed
// with the constant-time ladder as the functional multiplier; any
// exact multiplier that consumes the parties' randomness identically
// must reproduce them byte for byte, whichever route it takes.
func TestHospitalFleetReportPinned(t *testing.T) {
	want := map[uint64]string{
		1: "aa8d34abc51be9cc5d05f181011d6ae39a44af66bab62fd431dbd0a6b8240d0b",
		7: "e1411bb299326503c77e655cb61b0c799f69f0c4cd5556075a8cc85ae31fb9e1",
	}
	for _, seed := range []uint64{1, 7} {
		cfg := HospitalFleet(200, design.DefaultSweepLoss)
		cfg.Seed = seed
		rep, err := Run(cfg, RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(rep.Render()))
		if got := hex.EncodeToString(sum[:]); got != want[seed] {
			t.Errorf("seed %d: report digest %s, want %s", seed, got, want[seed])
		}
	}
}
