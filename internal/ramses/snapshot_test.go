package ramses

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fortranio"
	"repro/internal/particles"
)

func randomSnapshot(n int, seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &Snapshot{A: 0.5, Box: 100}
	for i := 0; i < n; i++ {
		s.Parts = append(s.Parts, particles.Particle{
			Pos:  [3]float64{rng.Float64(), rng.Float64(), rng.Float64()},
			Vel:  [3]float64{rng.NormFloat64() * 100, rng.NormFloat64() * 100, rng.NormFloat64() * 100},
			Mass: 1e10 * (1 + rng.Float64()),
			ID:   int64(i),
		})
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := randomSnapshot(100, 3)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.A != s.A || got.Box != s.Box || len(got.Parts) != len(s.Parts) {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := range s.Parts {
		if got.Parts[i] != s.Parts[i] {
			t.Fatalf("particle %d differs:\n got %+v\nwant %+v", i, got.Parts[i], s.Parts[i])
		}
	}
}

func TestSnapshotEmptyRoundTrip(t *testing.T) {
	s := &Snapshot{A: 1, Box: 50}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parts) != 0 {
		t.Errorf("expected empty snapshot")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := randomSnapshot(50, 7)
	path, err := SaveSnapshot(dir, 3, s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, "output_00003") {
		t.Errorf("unexpected path %q", path)
	}
	got, err := LoadSnapshot(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parts) != 50 {
		t.Errorf("%d particles, want 50", len(got.Parts))
	}
	if _, err := LoadSnapshot(dir, 4); err == nil {
		t.Error("missing snapshot should error")
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("garbage")); err == nil {
		t.Error("expected error for garbage")
	}
	// Truncated after header.
	s := randomSnapshot(10, 1)
	var buf bytes.Buffer
	WriteSnapshot(&buf, s)
	raw := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(raw[:40])); err == nil {
		t.Error("expected error for truncated snapshot")
	}
}

// A header whose particle count no block backs is refused before anything
// is sized by it; a count of 1e18 used to panic in makeslice.
func TestReadSnapshotRefusesUnbackedCount(t *testing.T) {
	for _, count := range []float64{1e18, 1e15, -1, math.NaN(), 3} {
		var buf bytes.Buffer
		fw := fortranio.NewWriter(&buf)
		fw.WriteFloat64s([]float64{1, 100, count})
		fw.WriteFloat64s([]float64{0.5})
		if _, err := ReadSnapshot(&buf); err == nil {
			t.Errorf("header count %g with a 1-entry position block was accepted", count)
		}
	}
}

// FuzzReadSnapshot feeds ReadSnapshot arbitrary bytes, seeded with a written
// snapshot: it may refuse them, but must not panic, and what it accepts must
// write back and read again with as many particles.
func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, randomSnapshot(4, 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSnapshot(&out, s); err != nil {
			t.Fatalf("accepted snapshot does not write back: %v", err)
		}
		again, err := ReadSnapshot(&out)
		if err != nil || len(again.Parts) != len(s.Parts) {
			t.Fatalf("written snapshot reads back as %v, %v", again, err)
		}
	})
}

func TestSnapshotPath(t *testing.T) {
	p := SnapshotPath("/work", 12)
	want := filepath.Join("/work", "output_00012", "part.dat")
	if p != want {
		t.Errorf("SnapshotPath = %q, want %q", p, want)
	}
}

// LoadSnapshot reads the snapshot at the canonical path for index i.
func LoadSnapshot(dir string, i int) (*Snapshot, error) {
	f, err := os.Open(SnapshotPath(dir, i))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(bufio.NewReader(f))
}
