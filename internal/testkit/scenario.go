package testkit

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/prng"
)

// ScenarioDraw is one sampled evaluation of a core.Scenario: which
// class to sample (Classes() selects RandomSample) and the PRNG seed
// the sample is drawn under.
type ScenarioDraw struct {
	Class int
	Seed  uint64
}

// ScenarioDraws generates draws covering every class of s plus the
// random baseline. Shrinking lowers the class index and zeroes seed
// bits, so a contract violation reports the smallest class and seed
// that trigger it.
func ScenarioDraws(s core.Scenario) Gen[ScenarioDraw] {
	return Gen[ScenarioDraw]{
		Name: fmt.Sprintf("draw(%s)", s.Name()),
		Generate: func(r *prng.Rand) ScenarioDraw {
			return ScenarioDraw{Class: r.Intn(s.Classes() + 1), Seed: r.Uint64()}
		},
		Shrink: func(v ScenarioDraw) []ScenarioDraw {
			var out []ScenarioDraw
			if v.Class > 0 {
				out = append(out, ScenarioDraw{Class: v.Class - 1, Seed: v.Seed})
			}
			for _, s := range shrinkUint64(v.Seed) {
				out = append(out, ScenarioDraw{Class: v.Class, Seed: s})
			}
			return out
		},
		Format: func(v ScenarioDraw) string {
			return fmt.Sprintf("class=%d seed=%#x", v.Class, v.Seed)
		},
	}
}

// CheckScenario verifies the core.Scenario contract for s under the
// property runner: Sample and RandomSample must return feature vectors
// of exactly FeatureLen entries, every entry in {0, 1}, and the packed
// SampleBatch and RandomBatch must, from an identical generator,
// produce exactly the bits of Sample (RandomSample), consume exactly as
// much generator state, and leave the trailing bits of the last packed
// word zero. The draw with Class == Classes() exercises RandomSample
// and RandomBatch; the sample itself is drawn from
// prng.NewStream(draw.Seed, 0) so failures replay from the printed
// counterexample.
//
// When s also implements core.RelatedKeyScenario, its declared
// generator layout is audited on every class draw: Sample must consume
// exactly DrawWords(class) 64-bit outputs, so a related-key path that
// draws its key or plaintext words differently from its specification
// fails conformance even though the two sampling paths agree with each
// other.
func CheckScenario(t T, s core.Scenario, cfg Config) *Failure[ScenarioDraw] {
	t.Helper()
	rk, _ := s.(core.RelatedKeyScenario)
	words := bits.PackedWords(s.FeatureLen())
	packed := make([]uint64, words)
	want := make([]uint64, words)
	prop := func(d ScenarioDraw) error {
		r := prng.NewStream(d.Seed, 0)
		var vec []float64
		if d.Class == s.Classes() {
			vec = s.RandomSample(r)
		} else {
			vec = s.Sample(r, d.Class)
		}
		if len(vec) != s.FeatureLen() {
			return fmt.Errorf("feature vector has %d entries, FeatureLen is %d", len(vec), s.FeatureLen())
		}
		for i, x := range vec {
			if x != 0 && x != 1 {
				return fmt.Errorf("feature %d is %v, want 0 or 1", i, x)
			}
		}
		rb := prng.NewStream(d.Seed, 0)
		for i := range packed {
			packed[i] = ^uint64(0) // dirty: the packed path must overwrite fully
		}
		method, float := "SampleBatch", "Sample"
		if d.Class == s.Classes() {
			method, float = "RandomBatch", "RandomSample"
			s.RandomBatch(rb, packed)
		} else {
			s.SampleBatch(rb, d.Class, packed)
		}
		bits.PackFloats(want, vec)
		for i := range packed {
			if packed[i] != want[i] {
				return fmt.Errorf("%s word %d is %#x, %s packs to %#x", method, i, packed[i], float, want[i])
			}
		}
		probe := r.Uint64()
		if probe != rb.Uint64() {
			return fmt.Errorf("%s consumed different generator state than %s", method, float)
		}
		if d.Class == s.Classes() {
			return nil
		}
		if rk != nil {
			declared := rk.DrawWords(d.Class)
			if declared < 0 {
				return fmt.Errorf("DrawWords(%d) is negative (%d)", d.Class, declared)
			}
			rc := prng.NewStream(d.Seed, 0)
			for i := 0; i < declared; i++ {
				rc.Uint64()
			}
			if rc.Uint64() != probe {
				return fmt.Errorf("Sample consumed a different number of generator words than the declared layout DrawWords(%d) = %d", d.Class, declared)
			}
		}
		return nil
	}
	return CheckConfig(t, fmt.Sprintf("scenario-contract/%s", s.Name()), ScenarioDraws(s), prop, cfg)
}
