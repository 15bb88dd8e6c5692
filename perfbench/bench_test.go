package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/jcf"
	"repro/internal/tools/dsim"
	"repro/internal/tools/schematic"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so the sort matters
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0: refused
	}{
		{99, 0.9, 0},   // rank 90 leaves 9 beyond
		{100, 0.9, 90}, // rank 90 leaves 10 beyond
		{19, 0.5, 0},   // rank 10 leaves 9 beyond
		{20, 0.5, 10},
		{0, 0.5, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", c.q*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.q*100, c.n, got, err, c.want)
		}
	}
}

func TestSplitSharesAndUnattributed(t *testing.T) {
	a := &recorder{wallStart: 0, wallEnd: 100, spans: []span{
		{kind: spanReserve, start: 0, end: 10},
		{kind: spanCheckin, start: 10, end: 40},
		{kind: spanHarness, start: 50, end: 60},
	}}
	b := &recorder{wallStart: 200, wallEnd: 250, spans: []span{
		{kind: spanPublish, start: 200, end: 225},
	}}
	shares, unattributed := split([]*recorder{a, b})
	want := map[spanKind]float64{
		spanReserve: 10.0 / 150, spanCheckin: 30.0 / 150,
		spanHarness: 10.0 / 150, spanPublish: 25.0 / 150,
	}
	sum := unattributed
	for k := spanKind(0); k < numSpanKinds; k++ {
		if math.Abs(shares[k]-want[k]) > 1e-12 {
			t.Errorf("%s share = %g, want %g", spanNames[k], shares[k], want[k])
		}
		sum += shares[k]
	}
	if math.Abs(unattributed-75.0/150) > 1e-12 {
		t.Errorf("unattributed = %g, want %g", unattributed, 75.0/150)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares and unattributed sum to %g, want 1", sum)
	}
}

func TestFingerprintIgnoresNextOID(t *testing.T) {
	fw, err := jcf.New(jcf.Release30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.CreateUser("anna"); err != nil {
		t.Fatal(err)
	}
	data, err := fw.ReplicationSource().Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["next_oid"]; !ok {
		t.Fatalf("snapshot encoding has no next_oid field: %s", data)
	}
	fp := func() string {
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fingerprintJSON(out)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	orig, err := fingerprintJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	m["next_oid"] = json.RawMessage("123456789")
	if fp() != orig {
		t.Errorf("fingerprint changed with next_oid alone")
	}
	var objs []json.RawMessage
	if err := json.Unmarshal(m["objects"], &objs); err != nil || len(objs) == 0 {
		t.Fatalf("snapshot objects: %v (%d)", err, len(objs))
	}
	if m["objects"], err = json.Marshal(objs[1:]); err != nil {
		t.Fatal(err)
	}
	if fp() == orig {
		t.Errorf("fingerprint unchanged after dropping an object")
	}
}

func TestAdderStimulusSimulatesTheSum(t *testing.T) {
	sch, err := schematic.GenRippleAdder("adder", adderBits)
	if err != nil {
		t.Fatal(err)
	}
	circuit, err := dsim.Flatten(sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	top := uint64(1)<<adderBits - 1
	for _, c := range [][3]uint64{{0, 0, 0}, {top, top, 1}, {0x5a, 0xa5, 1}, {top, 1, 0}} {
		stim, err := dsim.ParseStimulus(adderStimulus(c[0], c[1], c[2]))
		if err != nil {
			t.Fatal(err)
		}
		sim := dsim.NewSimulator(circuit)
		if _, err := stim.Apply(sim); err != nil {
			t.Fatal(err)
		}
		got, err := simulatedSum(sim.DumpWaves(), adderBits)
		if err != nil {
			t.Fatal(err)
		}
		if want := c[0] + c[1] + c[2]; got != want {
			t.Errorf("%d + %d + %d simulated as %d", c[0], c[1], c[2], got)
		}
	}
}
