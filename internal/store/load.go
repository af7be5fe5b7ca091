package store

import (
	"bytes"
	"io"
	"os"
	"strings"
)

// Open opens path as one store, auto-detecting the format: a shard
// directory (one holding a manifest.json) is merged into one store, a v4
// snapshot in a regular file is served straight from an OS file mapping
// in O(1) (the caller owns the mapping: Mapping().Release), and every
// other input — N-Triples, or anything from a pipe, which can be neither
// rewound nor mapped — is read as a stream by loadAnyReader. It is the one
// open of cmd/queryrun, cmd/benchrun and cmd/served.
//
// The sniff and the load share one file descriptor, so a concurrent
// rewrite of path between them cannot switch the format under us.
func Open(path string) (*Store, error) {
	if isShardedSnapshot(path) {
		return loadSharded(path)
	}
	return openFile(path)
}

// openFile is Open for a single file.
func openFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		var magic [8]byte
		if _, err := f.ReadAt(magic[:], 0); err == nil && string(magic[:]) == snapshotMagicV4 {
			return OpenMappedFile(f)
		}
	}
	return loadAnyReader(f)
}

// loadAnyReader builds a store from a stream. The format sniff reads the
// first 8 bytes and stitches them back with io.MultiReader, so
// non-seekable inputs (pipes, process substitution) work too. A short
// input (under 8 bytes) is legal — it is parsed as N-Triples — but a read
// that fails with a real I/O error is reported as that error instead of
// falling through to a confusing parse failure.
func loadAnyReader(r io.Reader) (*Store, error) {
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
