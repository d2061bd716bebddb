package core

import (
	"strings"
	"testing"

	"repro/internal/chaskey"
	"repro/internal/prng"
	"repro/internal/simeck"
	"repro/internal/simon"
)

// TestSweepParallelDeterminism extends the sharded-PRNG determinism
// regression to the sweep scenarios: for every new cipher family —
// including both related-key variants, whose class-1 draws consume six
// generator words instead of one — generation at 1, 4 and 7 workers
// must be byte-identical to the serial run from the same seed.
func TestSweepParallelDeterminism(t *testing.T) {
	for _, fam := range []struct {
		target string
		rounds int
	}{
		{"simon", 8},
		{"simon-rk", 10},
		{"simeck", 8},
		{"simeck-rk", 12},
		{"chaskey", 3},
	} {
		s, err := NewScenarioByName(fam.target, fam.rounds)
		if err != nil {
			t.Fatal(err)
		}
		// perClass chosen so the row count is not divisible by the
		// worker counts — shard boundaries land mid-class.
		const perClass = 101
		want := generateDataset(s, perClass, prng.New(33), 1)
		if want.Len() != perClass*s.Classes() {
			t.Fatalf("%s: serial dataset has %d rows, want %d", s.Name(), want.Len(), perClass*s.Classes())
		}
		for _, workers := range []int{1, 4, 7} {
			got := generateDataset(s, perClass, prng.New(33), workers)
			if !datasetsEqual(got, want) {
				t.Errorf("%s: %d-worker dataset differs from serial", s.Name(), workers)
			}
		}
	}
}

// TestRelatedKeyZeroDeltaDegenerates: a related-key scenario with ∇ = 0
// is the single-key scenario, bit for bit — same name (no -rk tag),
// all-zero KeyDelta, and byte-identical datasets from the same seed.
func TestRelatedKeyZeroDeltaDegenerates(t *testing.T) {
	simonRK, err := CustomSimonScenario(8, simon.NDDelta, simon.Key{})
	if err != nil {
		t.Fatal(err)
	}
	simonSK, err := NewSimonScenario(8)
	if err != nil {
		t.Fatal(err)
	}
	simeckRK, err := CustomSimeckScenario(9, simeck.NDDelta, simeck.Key{})
	if err != nil {
		t.Fatal(err)
	}
	simeckSK, err := NewSimeckScenario(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct{ rk, sk RelatedKeyScenario }{
		{simonRK, simonSK},
		{simeckRK, simeckSK},
	} {
		if got, want := pair.rk.Name(), pair.sk.Name(); got != want {
			t.Errorf("zero-∇ scenario named %q, single-key is %q", got, want)
		}
		if strings.Contains(pair.rk.Name(), "-rk-") {
			t.Errorf("%s: zero-∇ scenario carries the related-key tag", pair.rk.Name())
		}
		for _, b := range pair.rk.KeyDelta() {
			if b != 0 {
				t.Errorf("%s: zero-∇ scenario reports nonzero KeyDelta %x", pair.rk.Name(), pair.rk.KeyDelta())
				break
			}
		}
		a := GenerateDataset(pair.rk, 64, prng.New(7))
		b := GenerateDataset(pair.sk, 64, prng.New(7))
		if !datasetsEqual(a, b) {
			t.Errorf("%s: zero-∇ dataset differs from single-key dataset", pair.rk.Name())
		}
	}
}

// TestRelatedKeyDeltaChangesDataset: the canonical nonzero ∇ actually
// reaches the sampler — the related-key dataset must differ from the
// single-key dataset at the same rounds and seed.
func TestRelatedKeyDeltaChangesDataset(t *testing.T) {
	rk, err := NewSimonRKScenario(8)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewSimonScenario(8)
	if err != nil {
		t.Fatal(err)
	}
	if datasetsEqual(GenerateDataset(rk, 64, prng.New(7)), GenerateDataset(sk, 64, prng.New(7))) {
		t.Fatal("related-key dataset is identical to single-key dataset; ∇ ignored by the sampler")
	}
}

// TestSweepConstructorValidation: round counts outside the cipher's
// range and all-zero difference pairs are rejected at construction.
func TestSweepConstructorValidation(t *testing.T) {
	for _, rounds := range []int{-1, 0, simon.Rounds + 1} {
		if _, err := NewSimonScenario(rounds); err == nil {
			t.Errorf("SIMON scenario accepted %d rounds", rounds)
		}
		if _, err := NewSimeckScenario(rounds); err == nil {
			t.Errorf("SIMECK scenario accepted %d rounds", rounds)
		}
	}
	for _, rounds := range []int{-1, 0, chaskey.LTSRounds + 1} {
		if _, err := NewChaskeyScenario(rounds); err == nil {
			t.Errorf("Chaskey scenario accepted %d rounds", rounds)
		}
	}
	if _, err := CustomSimonScenario(8, simon.Block{}, simon.Key{}); err == nil {
		t.Error("SIMON scenario accepted δ = ∇ = 0")
	}
	if _, err := CustomSimeckScenario(8, simeck.Block{}, simeck.Key{}); err == nil {
		t.Error("SIMECK scenario accepted δ = ∇ = 0")
	}
	if _, err := CustomChaskeyScenario(3, chaskey.State{}); err == nil {
		t.Error("Chaskey scenario accepted δ = 0")
	}
	if _, err := CustomSimonScenario(8, simon.Block{}, simon.LuKeyDelta); err != nil {
		t.Errorf("pure related-key SIMON construction (δ = 0, ∇ ≠ 0) rejected: %v", err)
	}
}
