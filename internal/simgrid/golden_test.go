package simgrid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/scheduler"
)

// digest hashes everything a result exposes: every exported field, followed
// through pointers, slices and maps (keys sorted), floats by their bits, so
// two same-instant events swapping places moves it even when every headline
// number stands.
func digest(t *testing.T, v any) string {
	t.Helper()
	h := sha256.New()
	hashValue(t, h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

func hashValue(t *testing.T, h hash.Hash, v reflect.Value) {
	t.Helper()
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		word(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			word(0)
			return
		}
		word(1)
		hashValue(t, h, v.Elem())
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(t, h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		word(uint64(len(keys)))
		for _, k := range keys {
			hashValue(t, h, k)
			hashValue(t, h, v.MapIndex(k))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				hashValue(t, h, v.Field(i))
			}
		}
	default:
		t.Fatalf("golden digest: cannot hash a %s", v.Type())
	}
}

// goldenParts are the ten parts of the benchmark's suite (bench/suite.go,
// rebuilt here because the benchmark is its own module), each returning its
// whole result instead of a headline number.
var goldenParts = []struct {
	name string
	run  func(mk func() ExperimentConfig, seed int64) (any, error)
}{
	{"experiment", func(mk func() ExperimentConfig, _ int64) (any, error) {
		cfg := mk()
		cfg.Policy = scheduler.NewRoundRobin()
		return RunExperiment(cfg)
	}},
	{"forecast", func(mk func() ExperimentConfig, _ int64) (any, error) { return RunForecastAblation(mk, 2) }},
	{"deploy", func(mk func() ExperimentConfig, _ int64) (any, error) { return RunDeployAblation(mk, 2) }},
	{"warmstart", func(mk func() ExperimentConfig, _ int64) (any, error) {
		return RunWarmStartAblation(mk, "Nancy2", 2)
	}},
	{"replan", func(mk func() ExperimentConfig, _ int64) (any, error) {
		return RunReplanAblation(mk, ReplanAblationConfig{})
	}},
	{"backfill", func(mk func() ExperimentConfig, _ int64) (any, error) {
		return RunBackfillAblation(mk, BackfillAblationConfig{})
	}},
	{"failure", func(mk func() ExperimentConfig, _ int64) (any, error) {
		return RunFailureAblation(mk, FailureAblationConfig{})
	}},
	{"workflow", func(func() ExperimentConfig, int64) (any, error) {
		return RunWorkflowAblation(WorkflowAblationConfig{})
	}},
	{"federation", func(func() ExperimentConfig, int64) (any, error) {
		return RunFederationAblation(FederationAblationConfig{})
	}},
	{"data", func(_ func() ExperimentConfig, seed int64) (any, error) {
		return RunDataAblation(DataAblationConfig{Seed: seed}), nil
	}},
}

// TestGoldenSuiteOutputs pins the full output of every suite part at its
// default configuration: every record, timestamp, log line and counter the
// results expose. The digests were produced by the simulator, the policies
// and the CoRI fit as they stood before the profile-led pass over them; an
// optimisation that moves one has changed what the simulator computes — the
// order of two same-instant events, one rounding in a score or a fit — and
// must be dropped or fixed, not re-pinned. (The workflow and federation parts
// take no seed, so both rows pin the same value.)
func TestGoldenSuiteOutputs(t *testing.T) {
	golden := map[int64]map[string]string{
		1: {
			"experiment": "6ec9302e36f886e6965e418e71c3852ac7652c62c0e9af45eb23611405221aa7",
			"forecast":   "07aa20e3f47b03e42fa620d00a0c1f78af0eba9b6cdadcb68129a841df9663e1",
			"deploy":     "84c72d56127aa4053a0682926902620d177fe3495692d1d01b1a0d7e4208847e",
			"warmstart":  "2a73ad431139d2709513a0be1bb4baf196a28f604ea5ca0e3aa50215518a1d2e",
			"replan":     "3e29cfb5d151720417e3616f1269b496081464904a0ac7b2123611ff4229a405",
			"backfill":   "643a36b2eb580be93cc184d95c4b0bcfa4b928a988865288618130fb497f0512",
			"failure":    "8a34b97262f44b959aee80e36e8f444e5f7becf017a7dbce6a4c8f65a4c81069",
			"workflow":   "d969472ce948e105a959d49ac52645ed05bb5c4d2a3a49b274e0fb52d683cfe8",
			"federation": "ab32e6c524d17852d2ff23811f49d02f1099546c587dc095dc1a77dc5d7cc12b",
			"data":       "a6a2e1bf6276fa1458ab38dbc6631d92898ca90d6c3f40e729a85878e0ad519f",
		},
		2: {
			"experiment": "b3795924eb4c8ee7ce90906da64828c6cf1965ee606a438da9fc97dc6a22c116",
			"forecast":   "cb5c431da8c73676797fc215225539439eb6dfdfa22cb25c3d18cd136e7bb25d",
			"deploy":     "3ac9f71af88ca518bbaf4d1556fc920d51e9cfaa85b6a938e9d496ea111204a5",
			"warmstart":  "0d5095b2179a6ec191338b39e40d91406628be453af753a06994039bc04dc71b",
			"replan":     "695398b4378433411916c39cb88d7cb6fe9f65c7a2b09c9ea5eefb390dbcb7b9",
			"backfill":   "b1d876c6051c3c0a340e11f8c26977b471f654472176fb194528a3b17c3a04e5",
			"failure":    "bb2c18154a4b573280179e956b92a969e5db9dd2d1f97ba667580c5de2124da6",
			"workflow":   "d969472ce948e105a959d49ac52645ed05bb5c4d2a3a49b274e0fb52d683cfe8",
			"federation": "ab32e6c524d17852d2ff23811f49d02f1099546c587dc095dc1a77dc5d7cc12b",
			"data":       "62b82e33b8052ed4f3f4c7ae22883832a1992015d14e15fcda6b91495935e0b5",
		},
	}
	for _, seed := range []int64{1, 2} {
		seed := seed
		mk := func() ExperimentConfig {
			cfg := DefaultExperiment(nil)
			cfg.Seed = seed
			return cfg
		}
		for _, part := range goldenParts {
			res, err := part.run(mk, seed)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, part.name, err)
			}
			if got, want := digest(t, res), golden[seed][part.name]; got != want {
				t.Errorf("seed %d %s: sha256 %s, want %s", seed, part.name, got, want)
			}
		}
	}
}
