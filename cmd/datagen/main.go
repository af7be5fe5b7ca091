// Command datagen generates a benchmark dataset (BSBM-style or LDBC-SNB-
// style) as N-Triples or as a store snapshot (the v4 format cmd/served
// maps in).
//
// Usage:
//
//	datagen -dataset bsbm -scale default -seed 1 -out data.nt
//	datagen -dataset snb  -scale test > snb.nt
//	datagen -dataset snb  -scale test -format snapshot -out snb.snap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bsbm"
	"repro/internal/rdf"
	"repro/internal/snb"
	"repro/internal/store"
)

func main() {
	var (
		dataset = flag.String("dataset", "bsbm", "dataset to generate: bsbm | snb")
		scale   = flag.String("scale", "default", "scale preset: test | default")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output file (default stdout)")
		format  = flag.String("format", "nt", "output format: nt (N-Triples) | snapshot (v4 store snapshot, mmap-servable)")
		shards  = flag.Int("shards", 0, "with -format snapshot: write a sharded snapshot directory at -out (this many subject-hash shard files, each v4 mmap-servable, plus a manifest)")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *seed, *out, *format, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(dataset, scale string, seed int64, out, format string, shards int) error {
	if shards > 1 {
		if format != "snapshot" {
			return fmt.Errorf("-shards requires -format snapshot")
		}
		if out == "" {
			return fmt.Errorf("-shards requires -out (a directory path)")
		}
		b := store.NewBuilder()
		if err := generate(dataset, scale, seed, b.Add); err != nil {
			return err
		}
		sh := store.NewSharded(b.Build(), shards)
		if err := store.WriteSharded(out, sh); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "datagen: wrote sharded snapshot (%d shards, %d triples) to %s\n", sh.NumShards(), sh.Len(), out)
		return nil
	}
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "nt":
		nw := rdf.NewWriter(w)
		if err := generate(dataset, scale, seed, nw.Write); err != nil {
			return err
		}
		if err := nw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "datagen: wrote %d triples\n", nw.Count())
		return nil
	case "snapshot":
		b := store.NewBuilder()
		if err := generate(dataset, scale, seed, b.Add); err != nil {
			return err
		}
		st := b.Build()
		if err := st.WriteSnapshot(w); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "datagen: wrote v4 snapshot with %d triples\n", st.Len())
		return nil
	default:
		return fmt.Errorf("unknown format %q (want nt or snapshot)", format)
	}
}

// generate drives the selected generator into emit.
func generate(dataset, scale string, seed int64, emit func(rdf.Triple) error) error {
	switch dataset {
	case "bsbm":
		cfg, err := bsbmConfig(scale)
		if err != nil {
			return err
		}
		cfg.Seed = seed
		_, err = bsbm.Generate(cfg, emit)
		return err
	case "snb":
		cfg, err := snbConfig(scale)
		if err != nil {
			return err
		}
		cfg.Seed = seed
		_, err = snb.Generate(cfg, emit)
		return err
	default:
		return fmt.Errorf("unknown dataset %q (want bsbm or snb)", dataset)
	}
}

func bsbmConfig(scale string) (bsbm.Config, error) {
	switch scale {
	case "test":
		return bsbm.TestConfig(), nil
	case "default":
		return bsbm.DefaultConfig(), nil
	default:
		return bsbm.Config{}, fmt.Errorf("unknown scale %q (want test or default)", scale)
	}
}

func snbConfig(scale string) (snb.Config, error) {
	switch scale {
	case "test":
		return snb.TestConfig(), nil
	case "default":
		return snb.DefaultConfig(), nil
	default:
		return snb.Config{}, fmt.Errorf("unknown scale %q (want test or default)", scale)
	}
}
