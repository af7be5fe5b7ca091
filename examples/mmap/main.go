// Mmap: the disk-native v4 snapshot end to end — write a store as a
// page-aligned v4 file, open it straight from an OS file mapping in O(1)
// (no index deserialization), query it, overlay live updates on the mapped
// base, and hot-remap a service under an in-flight query to watch the old
// mapping drain.
//
// The standalone binaries take the same path: cmd/datagen -format
// snapshot writes the format and cmd/served serves v4 files mapped by
// default (-heap-load forces full deserialization).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/rdf"
	"repro/internal/service"
	"repro/internal/sparql"
	"repro/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "mmap-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A catalog big enough that heap deserialization visibly costs more
	// than mapping.
	st := catalog(2000)
	path := filepath.Join(dir, "catalog.v4.snap")
	writeV4(path, st)
	fi, _ := os.Stat(path)
	fmt.Printf("wrote v4 snapshot: %d triples, %d bytes (page-aligned sections)\n", st.Len(), fi.Size())

	// OpenMapped validates the header page structurally and reinterprets
	// the mapped sections as the six indexes + dictionary — constant work,
	// no matter how many triples the file holds.
	t0 := time.Now()
	mapped, err := store.OpenMapped(path)
	if err != nil {
		log.Fatal(err)
	}
	openMapped := time.Since(t0)

	t0 = time.Now()
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	heap, err := store.ReadSnapshot(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	openHeap := time.Since(t0)
	fmt.Printf("OpenMapped: %v (backend=%s, %d mapped bytes)\n", openMapped, mapped.Backend(), mapped.MappedBytes())
	fmt.Printf("ReadSnapshot (full revalidation + index rebuild): %v (backend=%s)\n", openHeap, heap.Backend())

	// Queries are backing-agnostic: same plans, same rows, same accounting
	// over mapped and heap stores.
	q, err := sparql.Parse(`SELECT ?p ?price WHERE { ?o <http://ex/product> ?p . ?o <http://ex/price> ?price . } ORDER BY ?price LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cheapest offers over the mapped store: %d rows\n", runRows(q, mapped))

	// Updates overlay the mapped base exactly like a heap base: the delta
	// lives on the heap, reads merge it in, the mapping stays read-only.
	s := rdf.NewIRI("http://ex/offerX")
	d, err := mapped.NewDelta().Apply([]rdf.Triple{
		rdf.NewTriple(s, rdf.NewIRI("http://ex/product"), rdf.NewIRI("http://ex/prod0")),
		rdf.NewTriple(s, rdf.NewIRI("http://ex/price"), rdf.NewInteger(1)),
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after overlay insert: %d triples (base %d still mapped)\n", d.Overlay().Len(), mapped.Len())

	// The service opens v4 paths mapped by default and pins each query's
	// snapshot generation: a reload retires the old mapping but defers
	// munmap until the last in-flight query closes its outcome.
	svc, err := service.Load(path, service.Options{AllowReload: true})
	if err != nil {
		log.Fatal(err)
	}
	out, err := svc.Query(context.Background(), `SELECT ?o WHERE { ?o <http://ex/product> ?p . }`, nil)
	if err != nil {
		log.Fatal(err)
	}
	path2 := filepath.Join(dir, "catalog2.v4.snap")
	writeV4(path2, catalog(100))
	if _, _, err := svc.Reload(path2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reload: backend=%s, mappings awaiting unmap=%d (query still open)\n",
		svc.Stats().Store.Backend, svc.Stats().Store.MappingsAwaitingUnmap)
	fmt.Printf("the open outcome still decodes from the retired mapping: %d rows\n", len(out.DecodedRows()))
	out.Close()
	fmt.Printf("after Close: mappings awaiting unmap=%d\n", svc.Stats().Store.MappingsAwaitingUnmap)
}

// runRows executes q over st through the service-free one-shot path.
func runRows(q *sparql.Query, st *store.Store) int {
	svc := service.New(st, "example", service.DefaultOptions())
	out, err := svc.Query(context.Background(), q.String(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	return len(out.DecodedRows())
}

// writeV4 serializes st as a v4 snapshot at path.
func writeV4(path string, st *store.Store) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// catalog builds n products, each typed and carrying one priced offer.
func catalog(n int) *store.Store {
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		prod := rdf.NewIRI(fmt.Sprintf("http://ex/prod%d", i))
		offer := rdf.NewIRI(fmt.Sprintf("http://ex/offer%d", i))
		add(prod, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://ex/Gadget"))
		add(offer, rdf.NewIRI("http://ex/product"), prod)
		add(offer, rdf.NewIRI("http://ex/price"), rdf.NewInteger(int64((i*37)%500+5)))
	}
	return b.Build()
}
