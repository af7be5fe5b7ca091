// Update walkthrough: build a store, mutate it with SPARQL-Update through
// the delta overlay, watch MVCC generations move under the query service,
// and round-trip the overlay through a v3 snapshot — the updatable-store
// layer end to end.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/internal/rdf"
	"repro/internal/service"
	"repro/internal/sparql"
	"repro/internal/store"
)

func main() {
	// A tiny social graph.
	b := store.NewBuilder()
	add := func(s, p, o string) {
		t := rdf.Triple{S: rdf.NewIRI("http://ex/" + s), P: rdf.NewIRI("http://ex/" + p), O: rdf.NewIRI("http://ex/" + o)}
		if err := b.Add(t); err != nil {
			log.Fatal(err)
		}
	}
	add("alice", "knows", "bob")
	add("alice", "knows", "carol")
	add("bob", "knows", "carol")
	base := b.Build()
	fmt.Printf("base store: %d triples\n", base.Len())

	// --- Level 1: the raw Delta API -----------------------------------
	// Apply is copy-on-write; the base store is never touched. The
	// overlay is an ordinary immutable *store.Store whose reads merge
	// the delta in on the fly.
	d := base.NewDelta()
	d, err := d.Apply(
		[]rdf.Triple{{S: rdf.NewIRI("http://ex/dave"), P: rdf.NewIRI("http://ex/knows"), O: rdf.NewIRI("http://ex/alice")}},
		[]rdf.Triple{{S: rdf.NewIRI("http://ex/bob"), P: rdf.NewIRI("http://ex/knows"), O: rdf.NewIRI("http://ex/carol")}},
	)
	if err != nil {
		log.Fatal(err)
	}
	overlay := d.Overlay()
	fmt.Printf("overlay: %d triples (+%d -%d pending), base still %d\n",
		overlay.Len(), d.InsertCount(), d.DeleteCount(), base.Len())

	// Commit folds the same delta into a fresh fully indexed store.
	committed := d.Commit()
	fmt.Printf("committed: %d triples, pending delta gone: %v\n",
		committed.Len(), committed.Delta() == nil)

	// --- Level 2: SPARQL-Update through the service (MVCC) ------------
	svc := service.New(base, "example", service.DefaultOptions())
	ctx := context.Background()
	query := `SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o . } ORDER BY ?s ?o`

	out, err := svc.Query(ctx, query, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngeneration %d: %d rows\n", out.Generation, len(out.Result.Rows))

	res, err := svc.Update(ctx, `
		PREFIX ex: <http://ex/>
		INSERT DATA { ex:erin ex:knows ex:alice . ex:erin ex:knows ex:bob . } ;
		DELETE DATA { ex:alice ex:knows ex:bob . }
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update published generation %d: %d triples, pending +%d -%d, compacted=%v\n",
		res.Generation, res.Triples, res.PendingInserts, res.PendingDeletes, res.Compacted)

	out, err = svc.Query(ctx, query, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d now answers with %d rows:\n", out.Generation, len(out.Result.Rows))
	for _, row := range out.DecodedRows() {
		fmt.Printf("  %s -> %s\n", row[0], row[1])
	}

	// Compact folds the pending delta into a plain store on demand (the
	// service also does this automatically once the delta reaches
	// Options.CompactThreshold).
	gen := svc.Compact()
	st := svc.Stats()
	fmt.Printf("after Compact: generation %d, %d triples, pending %d/%d, compactions %d\n",
		gen, st.Store.Triples, st.Store.PendingInserts, st.Store.PendingDeletes, st.Updates.Compactions)

	// --- Level 3: persistence (folded v4 snapshots) ------------------
	// Snapshotting an overlay folds the pending delta in: the v4 file
	// holds the equivalent plain store, which store.OpenMapped serves
	// straight from an OS file mapping and ReadSnapshot loads onto the
	// heap.
	var snap bytes.Buffer
	if err := overlay.WriteSnapshot(&snap); err != nil {
		log.Fatal(err)
	}
	restored, err := store.ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nv4 snapshot: %d bytes; restored store has %d triples (overlay had %d), pending delta folded: %v\n",
		snap.Len(), restored.Len(), overlay.Len(), restored.Delta() == nil)

	// The update text itself is plain SPARQL-Update — parseable anywhere.
	u := sparql.MustParseUpdate(`INSERT DATA { <http://ex/x> <http://ex/knows> <http://ex/y> . }`)
	fmt.Printf("\nparsed update:\n%s\n", u)
}
