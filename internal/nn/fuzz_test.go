package nn

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/prng"
)

// FuzzLoadArbitraryBytes: Load must reject arbitrary byte streams with
// an error, never a panic — model files cross process boundaries
// (training writes, experiments read), so a corrupt file must fail
// loudly and recoverably.
func FuzzLoadArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a model"))
	// A valid model file as a seed so the fuzzer explores mutations of
	// real gob structure, not just random prefixes.
	net, err := MLP(4, []int{3}, 2, ReLU, prng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Load(bytes.NewReader(data))
		if err == nil && n == nil {
			t.Fatal("Load returned nil network without error")
		}
	})
}

// FuzzSaveLoadRoundTrip: for arbitrary small architectures, a saved
// model must load back and produce identical inference output.
func FuzzSaveLoadRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(2), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(2), uint64(99))
	f.Fuzz(func(t *testing.T, inRaw, hiddenRaw, classesRaw uint8, seed uint64) {
		in := int(inRaw%8) + 1
		hidden := int(hiddenRaw%8) + 1
		classes := int(classesRaw%4) + 2
		net, err := MLP(in, []int{hidden}, classes, ReLU, prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("round-trip load: %v", err)
		}
		x := NewMatrix(3, in)
		r := prng.New(seed + 1)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64()
		}
		a, b := net.Probs(x), loaded.Probs(x)
		if len(a.Data) != len(b.Data) {
			t.Fatalf("output shapes differ: %d vs %d", len(a.Data), len(b.Data))
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("output %d differs after round-trip: %v vs %v", i, a.Data[i], b.Data[i])
			}
		}
	})
}

// FuzzPredictBits: for arbitrary packed rows and small shapes, the
// bit-driven PredictBitsInto must reproduce SetRowBits + PredictInto
// to the last bit of every logit, with the AVX2 kernels on and off.
func FuzzPredictBits(f *testing.F) {
	f.Add(uint8(64), uint8(7), uint8(2), uint8(0), uint64(1), []byte("\xff\x00\x0f\xf0\xaa\x55\x01\x80"))
	f.Add(uint8(65), uint8(4), uint8(3), uint8(5), uint64(2), make([]byte, 48))
	f.Fuzz(func(t *testing.T, inRaw, hiddenRaw, classesRaw, actRaw uint8, seed uint64, data []byte) {
		in := int(inRaw)%200 + 1
		hidden := int(hiddenRaw)%20 + 1
		classes := int(classesRaw)%4 + 2
		r := prng.New(seed)
		var layers []Layer
		layers = append(layers, NewDense(in, hidden, r))
		if act := ActKind(actRaw % 5); act <= Tanh { // 4: no activation
			layers = append(layers, NewActivation(act, hidden))
		}
		layers = append(layers, NewDense(hidden, classes, r))
		net, err := NewNetwork(layers...)
		if err != nil {
			t.Fatal(err)
		}
		wpr := (in+63)/64 + int(actRaw>>7)
		rows := len(data) / (8 * wpr)
		if rows > 64 {
			rows = 64
		}
		packed := make([]uint64, rows*wpr)
		for i := range packed {
			for b := 0; b < 8; b++ {
				packed[i] |= uint64(data[8*i+b]) << (8 * b)
			}
		}
		checkPredictBits(t, "fuzz", net, packed, rows, wpr)
		forceScalarMul(func() { checkPredictBits(t, "fuzz scalar", net, packed, rows, wpr) })
	})
}

// FuzzFitBits: for arbitrary MLP shapes, batch sizes (more than 64 rows
// per shard, partial last batches) and packed rows with stray bits at
// or beyond the input width, FitBits must train to the weights and
// History that Fit reaches on the rows expanded with SetRowBits, byte
// for byte, with the AVX2 kernels on and off.
func FuzzFitBits(f *testing.F) {
	f.Add(uint8(100), uint8(7), uint8(0), uint16(700), uint16(530), uint64(1))
	f.Add(uint8(63), uint8(2), uint8(0x85), uint16(90), uint16(20), uint64(2))
	f.Add(uint8(128), uint8(15), uint8(0x01), uint16(1100), uint16(1023), uint64(3))
	f.Fuzz(func(t *testing.T, inRaw, hiddenRaw, actRaw uint8, nRaw, bsRaw uint16, seed uint64) {
		in := int(inRaw)%200 + 1
		hidden := int(hiddenRaw)%16 + 1
		n := int(nRaw)%1200 + 1
		bs := int(bsRaw)%n + 1
		wpr := (in+63)/64 + int(actRaw>>7)
		build := func() *Network {
			r := prng.New(seed)
			layers := []Layer{NewDense(in, hidden, r), NewActivation(ActKind(actRaw%4), hidden)}
			if actRaw&4 != 0 {
				layers = append(layers, NewDropout(0.25, hidden, seed))
			}
			net, err := NewNetwork(append(layers, NewDense(hidden, 2, r))...)
			if err != nil {
				t.Fatal(err)
			}
			return net
		}
		r := prng.New(seed ^ 0xb175)
		packed := randPackedRows(r, n, wpr)
		y := make([]int, n)
		x := NewMatrix(n, in)
		for i := range y {
			y[i] = r.Intn(2)
			x.SetRowBits(i, packed[i*wpr:(i+1)*wpr])
		}
		cfg := FitConfig{Epochs: 1, BatchSize: bs, Seed: seed, Workers: 3}
		train := func(viaBits bool) []uint64 {
			net := build()
			var hist *History
			var err error
			if viaBits {
				hist, err = net.FitBits(packed, wpr, y, cfg)
			} else {
				hist, err = net.Fit(x, y, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			var bits []uint64
			for _, p := range net.Params() {
				for _, w := range p.W {
					bits = append(bits, math.Float64bits(w))
				}
			}
			return append(bits, math.Float64bits(hist.Loss[0]), math.Float64bits(hist.Acc[0]))
		}
		want := train(false)
		check := func(what string, viaBits bool) {
			got := train(viaBits)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: scalar %d = %x, Fit on expanded rows %x", what, i, got[i], want[i])
				}
			}
		}
		check("FitBits", true)
		forceScalarMul(func() {
			check("Fit scalar", false)
			check("FitBits scalar", true)
		})
	})
}
