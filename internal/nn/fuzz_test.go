package nn

import (
	"bytes"
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
