package ramses

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fortranio"
	"repro/internal/particles"
)

// Snapshot is "the current state of the universe" RAMSES outputs at each
// requested expansion factor (paper §4): the particle set plus metadata.
type Snapshot struct {
	A     float64       // expansion factor
	Box   float64       // box size, Mpc/h
	Parts particles.Set // particle states at this epoch
}

// WriteSnapshot writes the snapshot as Fortran unformatted records: a header
// (a, box, npart) followed by blocks of positions, velocities, masses and
// IDs — the same block structure as RAMSES part files.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	fw := fortranio.NewWriter(w)
	if err := fw.WriteFloat64s([]float64{s.A, s.Box, float64(len(s.Parts))}); err != nil {
		return err
	}
	n := len(s.Parts)
	buf := make([]float64, n)
	for d := 0; d < 3; d++ {
		for i := range s.Parts {
			buf[i] = s.Parts[i].Pos[d]
		}
		if err := fw.WriteFloat64s(buf); err != nil {
			return err
		}
	}
	for d := 0; d < 3; d++ {
		for i := range s.Parts {
			buf[i] = s.Parts[i].Vel[d]
		}
		if err := fw.WriteFloat64s(buf); err != nil {
			return err
		}
	}
	for i := range s.Parts {
		buf[i] = s.Parts[i].Mass
	}
	if err := fw.WriteFloat64s(buf); err != nil {
		return err
	}
	ids := make([]byte, 8*n)
	for i := range s.Parts {
		id := uint64(s.Parts[i].ID)
		for b := 0; b < 8; b++ {
			ids[8*i+b] = byte(id >> (8 * b))
		}
	}
	return fw.WriteRecord(ids)
}

// ReadSnapshot reads a snapshot written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	fr := fortranio.NewReader(r)
	head, err := fr.ReadFloat64s()
	if err != nil {
		return nil, err
	}
	if len(head) != 3 {
		return nil, fmt.Errorf("ramses: snapshot header has %d fields, want 3", len(head))
	}
	s := &Snapshot{A: head[0], Box: head[1]}
	// The header's count sizes nothing: the set is made once the first
	// position block, which holds only bytes actually read, agrees with it.
	var n int
	for d := 0; d < 3; d++ {
		col, err := fr.ReadFloat64s()
		if err != nil {
			return nil, fmt.Errorf("ramses: reading position block %d: %w", d, err)
		}
		if d == 0 {
			if float64(len(col)) != head[2] {
				return nil, fmt.Errorf("ramses: position block 0 has %d entries, header counts %g", len(col), head[2])
			}
			n = len(col)
			s.Parts = make(particles.Set, n)
		}
		if len(col) != n {
			return nil, fmt.Errorf("ramses: position block %d has %d entries, want %d", d, len(col), n)
		}
		for i := range col {
			s.Parts[i].Pos[d] = col[i]
		}
	}
	for d := 0; d < 3; d++ {
		col, err := fr.ReadFloat64s()
		if err != nil {
			return nil, fmt.Errorf("ramses: reading velocity block %d: %w", d, err)
		}
		if len(col) != n {
			return nil, fmt.Errorf("ramses: velocity block %d has %d entries, want %d", d, len(col), n)
		}
		for i := range col {
			s.Parts[i].Vel[d] = col[i]
		}
	}
	masses, err := fr.ReadFloat64s()
	if err != nil {
		return nil, fmt.Errorf("ramses: reading mass block: %w", err)
	}
	if len(masses) != n {
		return nil, fmt.Errorf("ramses: mass block has %d entries, want %d", len(masses), n)
	}
	for i := range masses {
		s.Parts[i].Mass = masses[i]
	}
	raw, err := fr.ReadRecord()
	if err != nil {
		return nil, fmt.Errorf("ramses: reading ID block: %w", err)
	}
	if len(raw) != 8*n {
		return nil, fmt.Errorf("ramses: ID block has %d bytes, want %d", len(raw), 8*n)
	}
	for i := 0; i < n; i++ {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(raw[8*i+b]) << (8 * b)
		}
		s.Parts[i].ID = int64(v)
	}
	return s, nil
}

// SnapshotPath returns the canonical output path for snapshot number i under
// dir, following the RAMSES output_00001/part convention.
func SnapshotPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("output_%05d", i), "part.dat")
}

// SaveSnapshot writes the snapshot to the canonical path for index i.
func SaveSnapshot(dir string, i int, s *Snapshot) (string, error) {
	path := SnapshotPath(dir, i)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := WriteSnapshot(bw, s); err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
