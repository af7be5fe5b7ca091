package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// Snapshot formats. WriteSnapshot writes exactly one: v4, the page-
// aligned layout of snapshot_v4.go that OpenMapped serves from an OS file
// mapping and ReadSnapshot deserializes onto the heap. The decode-then-
// rebuild formats v1–v3 below are read-only: files written by older
// versions of this package stay loadable (ReadSnapshot auto-detects the
// version by magic), but nothing writes them any more. Their layouts:
//
// v1 (all integers little-endian, fixed width):
//
//	magic   [8]byte  "RDFSNAP1"
//	nTerms  uint32
//	nTriple uint32
//	terms   nTerms × { kind uint8, value str, lang str, datatype str }
//	triples nTriple × { s, p, o uint32 }   (dictionary IDs, any order)
//
// where str is uint32 length + bytes.
//
// v2 (unsigned varints, delta-encoded triples):
//
//	magic   [8]byte  "RDFSNAP2"
//	nTerms  uvarint
//	nTriple uvarint
//	terms   nTerms × { kind uint8, value vstr, lang vstr, datatype vstr }
//	triples nTriple × delta record, strictly increasing SPO order
//
// where vstr is uvarint length + bytes. Each triple is encoded against its
// predecessor (starting from the zero triple): uvarint(S−prevS), then the
// full P and O if the subject advanced; otherwise 0, uvarint(P−prevP),
// then the full O if the predicate advanced; otherwise 0, 0,
// uvarint(O−prevO). Since the stream is strictly increasing, the final
// delta is never zero — a zero marks a duplicate (or unsorted) triple and
// is rejected, as are term IDs outside [1, nTerms].
//
// v3 (an overlay store, base and pending delta kept separate):
//
//	magic   [8]byte  "RDFSNAP3"
//	nTerms  uvarint
//	nBase   uvarint
//	nIns    uvarint
//	nDel    uvarint
//	terms   as in v2
//	base    nBase delta records (v2 scheme), strictly increasing SPO
//	ins     nIns  delta records, strictly increasing SPO
//	del     nDel  delta records, strictly increasing SPO
//
// Reading a v3 file restores the overlay (same base, same delta) rather
// than a folded store. The reader re-validates the Delta invariants
// (inserts disjoint from the base, deletes a subset of it), so a corrupt
// or hand-built file cannot smuggle in an overlay whose counts would lie.
const (
	snapshotMagicV1 = "RDFSNAP1"
	snapshotMagicV2 = "RDFSNAP2"
	snapshotMagicV3 = "RDFSNAP3"

	// maxSnapshotStr caps a single term component read from a snapshot.
	maxSnapshotStr = 1 << 24
	// maxSnapshotPrealloc caps slice/map pre-allocation driven by the
	// untrusted header counts: a corrupt header claiming 4G triples must
	// not allocate 48 GB up front. Reading still fails naturally when the
	// stream runs out; this only bounds what is allocated before that.
	// Kept small enough (64Ki entries) that a rejected corrupt header
	// costs microseconds, not tens of milliseconds of map pre-sizing —
	// legitimate larger snapshots just grow by amortized append.
	maxSnapshotPrealloc = 1 << 16
)

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
// frozen benchmark fixture writer (bench/fixture.go) calls it with 4;
// ROADMAP item 9(e) removes it.
func (s *Store) WriteSnapshotVersion(w io.Writer, version int) error {
	if version != 4 {
		return fmt.Errorf("store: cannot write snapshot version %d (only 4 is written; 1–3 are read-only)", version)
	}
	return s.WriteSnapshot(w)
}

// ReadSnapshot deserializes a store previously written by WriteSnapshot,
// auto-detecting the format version by magic. Indexes and statistics are
// rebuilt through the same (parallel) construction path as Builder.Build,
// so the result is identical to the original store.
func ReadSnapshot(r io.Reader) (*Store, error) {
	return ReadSnapshotOpts(r, BuildOptions{})
}

// ReadSnapshotOpts is ReadSnapshot with explicit construction options.
// A v3 snapshot restores the overlay it was written from: the base store
// is rebuilt through the standard construction path and the insert/delete
// sets are re-attached as a validated Delta.
func ReadSnapshotOpts(r io.Reader, opts BuildOptions) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(snapshotMagicV1))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: reading snapshot magic: %w", err)
	}
	var d *dict.Dict
	var triples []IDTriple
	var err error
	switch string(magic) {
	case snapshotMagicV1:
		d, triples, err = readV1(br)
	case snapshotMagicV2:
		d, triples, err = readV2(br)
	case snapshotMagicV3:
		return readV3(br, opts)
	case snapshotMagicV4:
		return readV4Heap(br, magic, opts)
	default:
		return nil, fmt.Errorf("store: bad snapshot magic %q", magic)
	}
	if err != nil {
		return nil, err
	}
	return buildIndexes(d, triples, opts), nil
}

// readTerms reads the shared dictionary section: nTerms records of
// kind byte + three strings, with readStr supplying the version-specific
// string decoding.
func readTerms(br *bufio.Reader, nTerms uint64, readStr func() (string, error)) (*dict.Dict, error) {
	d := dict.NewWithCapacity(int(min(nTerms, maxSnapshotPrealloc)))
	for i := uint64(0); i < nTerms; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("store: reading snapshot term %d: %w", i+1, err)
		}
		if kind > byte(rdf.Blank) {
			return nil, fmt.Errorf("store: snapshot term %d has invalid kind %d", i+1, kind)
		}
		value, err := readStr()
		if err != nil {
			return nil, err
		}
		lang, err := readStr()
		if err != nil {
			return nil, err
		}
		datatype, err := readStr()
		if err != nil {
			return nil, err
		}
		t := rdf.Term{Kind: rdf.Kind(kind), Value: value, Lang: lang, Datatype: datatype}
		got := d.Encode(t)
		if uint64(got) != i+1 {
			return nil, fmt.Errorf("store: snapshot term %d duplicates term %d", i+1, got)
		}
	}
	return d, nil
}

func readV1(br *bufio.Reader) (*dict.Dict, []IDTriple, error) {
	var nTerms, nTriples uint32
	if err := binary.Read(br, binary.LittleEndian, &nTerms); err != nil {
		return nil, nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nTriples); err != nil {
		return nil, nil, err
	}
	readStr := func() (string, error) {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		return readStrBody(br, uint64(n))
	}
	d, err := readTerms(br, uint64(nTerms), readStr)
	if err != nil {
		return nil, nil, err
	}
	triples := make([]IDTriple, 0, int(min(uint64(nTriples), maxSnapshotPrealloc)))
	buf := make([]byte, 12)
	for i := uint32(0); i < nTriples; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, nil, fmt.Errorf("store: reading triple %d: %w", i, err)
		}
		tr := IDTriple{
			S: dict.ID(binary.LittleEndian.Uint32(buf[0:4])),
			P: dict.ID(binary.LittleEndian.Uint32(buf[4:8])),
			O: dict.ID(binary.LittleEndian.Uint32(buf[8:12])),
		}
		for _, id := range []dict.ID{tr.S, tr.P, tr.O} {
			if id == dict.None || uint64(id) > uint64(nTerms) {
				return nil, nil, fmt.Errorf("store: triple %d references invalid term id %d", i, id)
			}
		}
		triples = append(triples, tr)
	}
	// v1 places no ordering constraint on the stream, so duplicates must
	// be detected explicitly: a store built from them would disagree with
	// a Builder-built store on Len, Count and predicate statistics.
	sortByOrder(triples, orderSPO)
	for i := 1; i < len(triples); i++ {
		if triples[i] == triples[i-1] {
			return nil, nil, fmt.Errorf("store: snapshot contains duplicate triple %v", triples[i])
		}
	}
	return d, triples, nil
}

func readV2(br *bufio.Reader) (*dict.Dict, []IDTriple, error) {
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	nTerms, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading snapshot term count: %w", err)
	}
	nTriples, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading snapshot triple count: %w", err)
	}
	if nTerms > math.MaxUint32 || nTriples > math.MaxUint32 {
		return nil, nil, fmt.Errorf("store: snapshot header counts %d/%d exceed 32-bit id space", nTerms, nTriples)
	}
	readStr := func() (string, error) {
		n, err := readUvarint()
		if err != nil {
			return "", err
		}
		return readStrBody(br, n)
	}
	d, err := readTerms(br, nTerms, readStr)
	if err != nil {
		return nil, nil, err
	}
	triples, err := readTripleStream(readUvarint, nTriples, nTerms, "triple")
	if err != nil {
		return nil, nil, err
	}
	return d, triples, nil
}

// readV3 reads an overlay snapshot: dictionary, base stream, insert
// stream and delete stream, rebuilding the base store and re-attaching
// the delta (with its invariants re-validated).
func readV3(br *bufio.Reader, opts BuildOptions) (*Store, error) {
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	var counts [4]uint64
	names := [4]string{"term", "base triple", "insert", "delete"}
	for i := range counts {
		n, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("store: reading snapshot %s count: %w", names[i], err)
		}
		if n > math.MaxUint32 {
			return nil, fmt.Errorf("store: snapshot %s count %d exceeds 32-bit id space", names[i], n)
		}
		counts[i] = n
	}
	nTerms := counts[0]
	readStr := func() (string, error) {
		n, err := readUvarint()
		if err != nil {
			return "", err
		}
		return readStrBody(br, n)
	}
	d, err := readTerms(br, nTerms, readStr)
	if err != nil {
		return nil, err
	}
	base, err := readTripleStream(readUvarint, counts[1], nTerms, "base triple")
	if err != nil {
		return nil, err
	}
	ins, err := readTripleStream(readUvarint, counts[2], nTerms, "insert")
	if err != nil {
		return nil, err
	}
	del, err := readTripleStream(readUvarint, counts[3], nTerms, "delete")
	if err != nil {
		return nil, err
	}
	st := buildIndexes(d, base, opts)
	delta, err := newDeltaFromSets(st, ins, del)
	if err != nil {
		return nil, err
	}
	return delta.Overlay(), nil
}

// readTripleStream decodes one delta-encoded triple stream (the v2/v3
// record format): n records in strictly increasing SPO order, every term
// id within [1, nTerms]. A zero delta (a duplicate or out-of-order
// record) is rejected.
func readTripleStream(readUvarint func() (uint64, error), n, nTerms uint64, what string) ([]IDTriple, error) {
	triples := make([]IDTriple, 0, int(min(n, maxSnapshotPrealloc)))
	var s, p, o uint64
	for i := uint64(0); i < n; i++ {
		read := func(field string) (uint64, error) {
			v, err := readUvarint()
			if err != nil {
				return 0, fmt.Errorf("store: reading %s %d %s: %w", what, i, field, err)
			}
			// No valid id or delta exceeds the 32-bit id space; rejecting
			// larger values here also keeps the running sums below from
			// wrapping uint64.
			if v > math.MaxUint32 {
				return 0, fmt.Errorf("store: %s %d %s %d exceeds 32-bit id space", what, i, field, v)
			}
			return v, nil
		}
		dS, err := read("subject delta")
		if err != nil {
			return nil, err
		}
		if dS != 0 {
			s += dS
			if p, err = read("predicate"); err != nil {
				return nil, err
			}
			if o, err = read("object"); err != nil {
				return nil, err
			}
		} else {
			dP, err := read("predicate delta")
			if err != nil {
				return nil, err
			}
			if dP != 0 {
				p += dP
				if o, err = read("object"); err != nil {
					return nil, err
				}
			} else {
				dO, err := read("object delta")
				if err != nil {
					return nil, err
				}
				if dO == 0 {
					return nil, fmt.Errorf("store: snapshot %s %d duplicates its predecessor", what, i)
				}
				o += dO
			}
		}
		if s == 0 || s > nTerms || p == 0 || p > nTerms || o == 0 || o > nTerms {
			return nil, fmt.Errorf("store: %s %d references term ids (%d %d %d) outside [1, %d]", what, i, s, p, o, nTerms)
		}
		triples = append(triples, IDTriple{S: dict.ID(s), P: dict.ID(p), O: dict.ID(o)})
	}
	return triples, nil
}

func readStrBody(br *bufio.Reader, n uint64) (string, error) {
	if n > maxSnapshotStr {
		return "", fmt.Errorf("store: snapshot string of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
