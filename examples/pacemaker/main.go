// Pacemaker: a mutual-authentication session between an implanted
// pacemaker and a clinician's programmer, demonstrating the paper's
// Section 4 protocol-engineering rules:
//
//   - mutual authentication, data authentication and encryption are
//     all required (a corrupted therapy command endangers the patient);
//   - the server authenticates FIRST, so a rogue programmer cannot
//     drain the implant's battery through failed sessions;
//   - the heavy computation runs on the 5.1 µJ co-processor, and the
//     example prices everything against the pacemaker's battery.
package main

import (
	"fmt"
	"log"

	"medsec/internal/battery"
	"medsec/internal/design"
	"medsec/internal/protocol"
	"medsec/internal/rng"
	"medsec/internal/threshold"
)

func main() {
	log.SetFlags(0)

	// The implant is the paper's prototype design point: K-163 ladder
	// with RPC on the d=4 MALU, protected CMOS at 847.5 kHz, priced
	// against the pacemaker cell.
	pt := design.Defaults()
	pt.Seed = 2026
	pt.TRNGSeed = 2026
	st, err := pt.Build()
	if err != nil {
		log.Fatal(err)
	}
	chip, err := st.Chip()
	if err != nil {
		log.Fatal(err)
	}
	curve := chip.Curve()
	src := rng.NewDRBG(99).Uint64
	programmerMul := &protocol.SoftwareMultiplier{Curve: curve, Rand: src}

	programmer, err := protocol.NewReader(curve, programmerMul, src)
	if err != nil {
		log.Fatal(err)
	}
	pacemaker, err := protocol.NewTag(curve, chip, src, programmer.Pub)
	if err != nil {
		log.Fatal(err)
	}
	programmer.Register(pacemaker.Pub)

	m := st.Radio
	costs := st.Costs

	// --- Honest session: mutual auth, then sealed telemetry. ---
	fmt.Println("== honest clinician session (server authenticates first) ==")
	res, err := protocol.RunMutualAuth(pacemaker, programmer, true, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed: %v (stage %s), identified as DB[%d]\n",
		res.Completed, res.AbortStage, res.TagIndex)
	sessionJ := m.LedgerEnergy(res.DeviceLedger, st.Point.DistanceM, costs)
	fmt.Printf("device: %d PMs, %d bits TX -> %.1f uJ per session\n",
		res.DeviceLedger.PointMuls, res.DeviceLedger.TxBits, sessionJ*1e6)

	var nonce [16]byte
	nonce[15] = 1
	vitals := []byte("HR=061bpm;BATT=2.71V;LEAD_IMP=540ohm;MODE=DDD")
	led := res.DeviceLedger
	sealed, err := protocol.Telemetry(res.SessionKey, nonce, vitals, &led)
	if err != nil {
		log.Fatal(err)
	}
	opened, err := protocol.OpenTelemetry(res.SessionKey, nonce, sealed, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("telemetry delivered intact: %q\n", opened)

	// A tampered therapy command must be rejected.
	sealed[4] ^= 0x01
	if _, err := protocol.OpenTelemetry(res.SessionKey, nonce, sealed, nil); err != nil {
		fmt.Printf("tampered telemetry rejected: %v\n\n", err)
	} else {
		log.Fatal("tampered telemetry accepted — data authentication broken")
	}

	// --- Key escrow: the implant's long-term key is threshold-shared
	// 2-of-3 across the implant's NVM, the manufacturer's backend and
	// the clinician's token (the paper's pointer to threshold
	// cryptography for devices that cannot store shares safely): no
	// single location holds the key, and any two recover it for a
	// key rollover or an explant audit. ---
	fmt.Println("== key escrow: 2-of-3 threshold sharing of the implant key ==")
	locations := []string{"implant NVM", "manufacturer backend", "clinician token"}
	shares, err := threshold.Split(pacemaker.X, curve.Order, 2, 3, src)
	if err != nil {
		log.Fatal(err)
	}
	for i, loc := range locations {
		fmt.Printf("share %d -> %s\n", shares[i].X, loc)
	}
	// The clinician token is lost: NVM + backend still recover the key.
	recovered, err := threshold.Combine(shares[:2], curve.Order)
	if err != nil {
		log.Fatal(err)
	}
	if !recovered.Equal(pacemaker.X) {
		log.Fatal("escrow reconstruction failed")
	}
	fmt.Printf("%s + %s recover the key: %v\n", locations[0], locations[1], recovered.Equal(pacemaker.X))
	// A backend breach alone learns nothing: one share interpolates to
	// a value unrelated to the key.
	alone, err := threshold.Combine(shares[1:2], curve.Order)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s alone recovers the key: %v\n\n", locations[1], alone.Equal(pacemaker.X))

	// --- Rogue programmer: the ordering rule in action. ---
	fmt.Println("== rogue programmer attack: session ordering comparison ==")
	goodOrder, err := protocol.RunMutualAuth(pacemaker, programmer, true, true)
	if err != nil {
		log.Fatal(err)
	}
	badOrder, err := protocol.RunMutualAuth(pacemaker, programmer, false, true)
	if err != nil {
		log.Fatal(err)
	}
	goodJ := m.LedgerEnergy(goodOrder.DeviceLedger, st.Point.DistanceM, costs)
	badJ := m.LedgerEnergy(badOrder.DeviceLedger, st.Point.DistanceM, costs)
	fmt.Printf("server-first ordering:        %d PMs wasted, %.1f uJ\n",
		goodOrder.DeviceLedger.PointMuls, goodJ*1e6)
	fmt.Printf("identification-first (naive): %d PMs wasted, %.1f uJ\n",
		badOrder.DeviceLedger.PointMuls, badJ*1e6)
	fmt.Printf("the paper's rule saves %.0f%% of the drained energy per rogue attempt\n\n",
		(1-goodJ/badJ)*100)

	// --- Same session over a lossy ward link: the ARQ transport of
	// internal/link retransmits dropped frames, and every retry is
	// battery drain the perfect-channel numbers above never showed. ---
	fmt.Println("== lossy ward link: retransmissions are battery drain too ==")
	lossyPt := pt
	lossyPt.Channel = design.ChannelBursty
	lossyPt.Loss = 0.25
	lst, err := lossyPt.Build()
	if err != nil {
		log.Fatal(err)
	}
	lossy, err := design.NewSession(nil).Run(lst, pacemaker, programmer, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed: %v (stage %s), %d device retries\n",
		lossy.Completed, lossy.Stage, lossy.Retries)
	lossyJ := m.LedgerEnergy(lossy.Ledger, st.Point.DistanceM, costs)
	// The radio part of the session price: its on-air bits alone.
	phyRadioJ, _ := lst.Price(design.SessionOutcome{PhyTxBits: lossy.PhyTxBits, PhyRxBits: lossy.PhyRxBits}, design.Measurement{})
	fmt.Printf("payload bits TX %d (perfect link: %d) -> session %.1f uJ (was %.1f uJ)\n",
		lossy.Ledger.TxBits, res.DeviceLedger.TxBits, lossyJ*1e6, sessionJ*1e6)
	fmt.Printf("with framing+ACK overhead the radio alone costs %.1f uJ\n", phyRadioJ*1e6)
	fmt.Println("(sweep loss x distance -> completion/retries/energy with cmd/linklab)")
	fmt.Println()

	// --- Battery-lifetime perspective (paper §1: 5-15 year battery),
	// priced against the design point's cell model: a 20 kJ LiI cell
	// with 1%/year self-discharge and 1% of capacity allotted to
	// security. ---
	cell := st.Battery
	sessionsPerDay := 4.0
	years, err := cell.SecurityLifetimeYears(battery.Workload{
		SessionsPerDay: sessionsPerDay,
		SessionEnergyJ: sessionJ,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("security budget %.0f J, %.0f sessions/day at %.1f uJ -> %.0f years of sessions\n",
		cell.CapacityJ*cell.SecurityBudgetFraction, sessionsPerDay, sessionJ*1e6, years)
	fmt.Println("(the cryptography is not the battery bottleneck — the paper's design goal)")
}
