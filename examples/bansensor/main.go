// BAN sensor network: the paper's typical scenario (§2) — several
// body-worn sensors report vital signs to an energy-rich mini-server
// (the patient's phone). Each sensor authenticates privately with the
// Peeters–Hermans protocol, derives a session key, and streams sealed
// measurements; the example accounts every microjoule and compares the
// secret-key vs public-key deployment options at different distances
// to the hospital's key-distribution infrastructure (experiment E7).
package main

import (
	"fmt"
	"log"

	"medsec/internal/core"
	"medsec/internal/design"
	"medsec/internal/link"
	"medsec/internal/protocol"
	"medsec/internal/radio"
	"medsec/internal/rng"
	"medsec/internal/tabular"
)

type sensor struct {
	name string
	chip *core.Coprocessor
	tag  *protocol.Tag
}

func main() {
	log.SetFlags(0)

	// Every sensor runs the paper's prototype design point; only the
	// per-device seeds differ.
	base := design.Defaults().MustBuild()
	curve := base.Curve
	src := rng.NewDRBG(555).Uint64
	serverMul := &protocol.SoftwareMultiplier{Curve: curve, Rand: src}
	server, err := protocol.NewReader(curve, serverMul, src)
	if err != nil {
		log.Fatal(err)
	}

	names := []string{"ecg-patch", "insulin-pump", "pulse-oximeter"}
	var sensors []*sensor
	for i, name := range names {
		p := design.Defaults()
		p.Seed = uint64(1000 + i)
		p.TRNGSeed = uint64(1000 + i)
		st, err := p.Build()
		if err != nil {
			log.Fatal(err)
		}
		chip, err := st.Chip()
		if err != nil {
			log.Fatal(err)
		}
		tag, err := protocol.NewTag(curve, chip, rng.NewDRBG(uint64(2000+i)).Uint64, server.Pub)
		if err != nil {
			log.Fatal(err)
		}
		server.Register(tag.Pub)
		chip.ResetMeters()
		sensors = append(sensors, &sensor{name: name, chip: chip, tag: tag})
	}

	m := base.Radio
	costs := base.Costs

	fmt.Println("== morning round: every sensor authenticates and reports ==")
	t := tabular.New("sensor", "identified", "PMs", "TX bits", "session energy [uJ]", "chip energy [uJ]")
	payloads := map[string]string{
		"ecg-patch":      "HR=072;QRS=96ms",
		"insulin-pump":   "BOLUS=0.0U;RESERVOIR=187U",
		"pulse-oximeter": "SPO2=97%;PI=1.4",
	}
	for _, s := range sensors {
		s.tag.Ledger = protocol.Ledger{}
		res, err := protocol.RunMutualAuth(s.tag, server, true, false)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Completed {
			log.Fatalf("%s failed to authenticate: %s", s.name, res.AbortStage)
		}
		var nonce [16]byte
		copy(nonce[:], s.name)
		led := res.DeviceLedger
		sealed, err := protocol.Telemetry(res.SessionKey, nonce, []byte(payloads[s.name]), &led)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := protocol.OpenTelemetry(res.SessionKey, nonce, sealed, nil); err != nil {
			log.Fatalf("%s: server could not open telemetry: %v", s.name, err)
		}
		e := m.LedgerEnergy(led, base.Point.DistanceM, costs)
		t.Row(s.name, fmt.Sprintf("DB[%d]", res.TagIndex), led.PointMuls, led.TxBits,
			fmt.Sprintf("%.1f", e*1e6), fmt.Sprintf("%.1f", s.chip.Total.EnergyJ*1e6))
	}
	t.Render(log.Writer())

	fmt.Println("\n== deployment choice: secret-key vs public-key (E7) ==")
	sym := radio.SymmetricKDC()
	pk := radio.PublicKeyLocal()
	t2 := tabular.New("distance to KDC [m]", sym.Name+" [uJ]", pk.Name+" [uJ]", "recommended")
	for _, d := range []float64{1, 5, 15, 30, 60} {
		ea := m.DeviceEnergy(sym, d, costs)
		eb := m.DeviceEnergy(pk, d, costs)
		rec := sym.Name
		if eb < ea {
			rec = pk.Name
		}
		t2.Row(fmt.Sprintf("%.0f", d), fmt.Sprintf("%.1f", ea*1e6), fmt.Sprintf("%.1f", eb*1e6), rec)
	}
	t2.Render(log.Writer())
	if d, err := m.Crossover(sym, pk, costs, 0, 100); err == nil {
		fmt.Printf("\nbeyond %.1f m from the key server, the ECC co-processor pays for itself\n", d)
	}
	fmt.Println("(and only the public-key option gives the patient location privacy)")

	// --- Store-and-forward: the phone is out of range overnight, so
	// the ECG patch seals measurements to the server's public key with
	// ECIES and uploads them in the morning — over a lossy body-area
	// link, so the upload pays for every ARQ retransmission. ---
	fmt.Println("\n== overnight store-and-forward (ECIES to the mini-server key) ==")
	patch := sensors[0]
	var nightLedger, serverLedger protocol.Ledger
	stored := make([]*protocol.HybridCiphertext, 0, 3)
	for hour, v := range []string{"HR=54;02:00", "HR=51;03:00", "HR=57;04:00"} {
		ct, err := protocol.HybridEncrypt(curve, patch.chip, server.Pub, []byte(v), patch.tag.Rand, &nightLedger)
		if err != nil {
			log.Fatal(err)
		}
		stored = append(stored, ct)
		_ = hour
	}
	np := design.Defaults()
	np.Channel = design.ChannelIID
	np.Loss = 0.2
	nst, err := np.Build()
	if err != nil {
		log.Fatal(err)
	}
	pair, err := link.NewPair(nst.Channel, nst.ARQ, 777)
	if err != nil {
		log.Fatal(err)
	}
	wire := protocol.NewWire(pair)
	for i, ct := range stored {
		got, err := protocol.TransferHybrid(wire, &nightLedger, &serverLedger, ct)
		if err != nil {
			log.Fatalf("morning upload of record %d failed: %v", i, err)
		}
		pt, err := protocol.HybridDecrypt(curve, serverMul, server.Y, got, nil)
		if err != nil {
			log.Fatalf("server could not open stored record %d: %v", i, err)
		}
		fmt.Printf("server recovered record %d: %s\n", i, pt)
	}
	e := m.LedgerEnergy(nightLedger, base.Point.DistanceM, costs)
	fmt.Printf("night batch: %d PMs, %d bits (%d retries on the 20%%-loss uplink) -> %.1f uJ total on the patch\n",
		nightLedger.PointMuls, nightLedger.TxBits, pair.A().Stats().Retries, e*1e6)
}
