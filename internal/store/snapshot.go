package store

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Snapshots. v4, the page-aligned layout of snapshot_v4.go, is the only
// format written or read: OpenMapped serves it from an OS file mapping and
// ReadSnapshot deserializes it onto the heap. Files in the older formats
// v1–v3 fail with a *VersionError.
const (
	// maxSnapshotStr caps a single term read from a snapshot.
	maxSnapshotStr = 1 << 24
	// maxSnapshotPrealloc caps slice/map pre-allocation driven by the
	// untrusted header counts: a corrupt header claiming 4G terms must
	// not allocate gigabytes up front. Kept small enough (64Ki entries)
	// that a rejected corrupt header costs microseconds, not tens of
	// milliseconds of map pre-sizing — legitimate larger snapshots just
	// grow by amortized append.
	maxSnapshotPrealloc = 1 << 16
)

// VersionError reports a snapshot whose magic ("RDFSNAP<n>") names a
// format version other than 4, the only one this package reads.
type VersionError struct {
	Version int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("store: snapshot is format v%d, but only v4 is read", e.Version)
}

// checkSnapshotMagic accepts data that starts with the v4 magic. Any other
// "RDFSNAP<digit>" header is a *VersionError naming that version.
func checkSnapshotMagic(data []byte) error {
	if len(data) < len(snapshotMagicV4) {
		return fmt.Errorf("store: snapshot of %d bytes is shorter than its magic", len(data))
	}
	magic := string(data[:len(snapshotMagicV4)])
	if magic == snapshotMagicV4 {
		return nil
	}
	if v := magic[7]; strings.HasPrefix(magic, "RDFSNAP") && v >= '0' && v <= '9' {
		return &VersionError{Version: int(v - '0')}
	}
	return fmt.Errorf("store: bad snapshot magic %q", magic)
}

// WriteSnapshot serializes the store to w in the v4 format. A pending
// delta is folded in, so an overlay store is written as the equivalent
// plain store.
func (s *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := s.writeV4(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSnapshotVersion is WriteSnapshot with an explicit format version,
// and 4 is the only version it accepts. It remains only because the
// frozen benchmark fixture writer (bench/fixture.go) calls it with 4.
func (s *Store) WriteSnapshotVersion(w io.Writer, version int) error {
	if version != 4 {
		return fmt.Errorf("store: cannot write snapshot version %d (only 4 is written)", version)
	}
	return s.WriteSnapshot(w)
}

// ReadSnapshot deserializes a v4 snapshot onto the heap. The whole file
// is revalidated (see readV4Heap) and the indexes and statistics are
// rebuilt through the same construction path as Builder.Build, so the
// result is identical to the store that was written. A file in an older
// format fails with a *VersionError.
func ReadSnapshot(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	if err := checkSnapshotMagic(data); err != nil {
		return nil, err
	}
	return readV4Heap(data)
}
