package store

import (
	"bytes"
	"io"
	"os"
	"strings"
)

// LoadAny builds a store from path, auto-detecting the format: a binary
// snapshot is recognized by its "RDFSNAP" magic and read by ReadSnapshot
// (so a pre-v4 file fails with a *VersionError), anything else is parsed
// as N-Triples. It is the one loading path shared by cmd/queryrun,
// cmd/benchrun and cmd/served.
func LoadAny(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadAnyReader(f)
}

// LoadAnyMapped is LoadAny that serves v4 snapshots straight from an OS
// file mapping: a v4 file comes back as an OpenMapped store in O(1) with
// no deserialization, every other input goes through LoadAnyReader.
// It is what cmd/served uses by default (see its -heap-load flag).
//
// The sniff and the load share one file descriptor: the 8-byte magic is
// read, then the same fd is either mmap'd (v4) or rewound and parsed, so a
// concurrent rewrite of path between sniff and load cannot switch the
// format under us.
func LoadAnyMapped(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if n == 8 && string(magic[:]) == snapshotMagicV4 {
		return OpenMappedFile(f)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return LoadAnyReader(f)
}

// LoadAnyReader is LoadAny over an already-open reader. The format sniff
// reads the first 8 bytes and stitches them back with io.MultiReader, so
// non-seekable inputs (pipes, process substitution) work too. A short
// input (under 8 bytes) is legal — it is parsed as N-Triples — but a read
// that fails with a real I/O error is reported as that error instead of
// falling through to a confusing parse failure.
func LoadAnyReader(r io.Reader) (*Store, error) {
	var magic [8]byte
	n, err := io.ReadFull(r, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	full := io.MultiReader(bytes.NewReader(magic[:n]), r)
	if n == 8 && strings.HasPrefix(string(magic[:]), "RDFSNAP") {
		return ReadSnapshot(full)
	}
	b := NewBuilder()
	if err := b.LoadNTriples(full); err != nil {
		return nil, err
	}
	return b.Build(), nil
}
