// Command gph-datagen generates the synthetic binary-vector corpora
// used by this repository (SIFT/GIST/PubChem/FastText/UQVideo
// stand-ins and the γ-skew synthetic family) and writes them in the
// repository's binary dataset format.
//
// Usage:
//
//	gph-datagen -dataset gist -n 20000 -o gist.ds
//	gph-datagen -dataset synthetic -dims 128 -gamma 0.3 -n 10000 -o syn.ds
//	gph-datagen -dataset sift -n 100000000 -stream -o sift-100m.ds
//
// -stream generates and writes one vector at a time instead of
// materializing the corpus, so output size is bounded by disk, not
// memory — the mode for the 100M+ vector corpora the out-of-core
// serving path (gph-server -mmap) exists for. Streamed and
// materialized output are byte-identical for the same flags.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"gph/datagen"
)

func main() {
	var (
		name   = flag.String("dataset", "sift", "generator: sift|gist|pubchem|fasttext|uqvideo|synthetic")
		n      = flag.Int("n", 10000, "number of vectors")
		dims   = flag.Int("dims", 128, "dimensions (synthetic only)")
		gamma  = flag.Float64("gamma", 0.3, "mean skewness in [0, 0.5] (synthetic only)")
		seed   = flag.Int64("seed", 42, "generator seed")
		stream = flag.Bool("stream", false, "write incrementally without materializing the corpus (for datasets larger than memory)")
		out    = flag.String("o", "", "output file (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "gph-datagen: -o is required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gph-datagen: %v\n", err)
		os.Exit(1)
	}
	// A failed final write-back surfaces at Close: check it before
	// reporting success.
	closeOut := func() {
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gph-datagen: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}

	if *stream {
		var s *datagen.Stream
		if *name == "synthetic" {
			s = datagen.SyntheticStream(*n, *dims, *gamma, *seed)
		} else {
			s, err = datagen.StreamByName(*name, *n, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gph-datagen: %v\n", err)
				os.Exit(1)
			}
		}
		w := bufio.NewWriterSize(f, 1<<20)
		if err := datagen.SaveStream(w, s); err != nil {
			fmt.Fprintf(os.Stderr, "gph-datagen: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "gph-datagen: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		closeOut()
		fmt.Printf("wrote %s: %d vectors × %d dims (streamed)\n", *out, s.Len(), s.Dims)
		return
	}

	var ds *datagen.Dataset
	if *name == "synthetic" {
		ds = datagen.Synthetic(*n, *dims, *gamma, *seed)
	} else {
		ds, err = datagen.ByName(*name, *n, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gph-datagen: %v\n", err)
			os.Exit(1)
		}
	}
	if err := ds.Save(f); err != nil {
		fmt.Fprintf(os.Stderr, "gph-datagen: writing %s: %v\n", *out, err)
		os.Exit(1)
	}
	closeOut()
	fmt.Printf("wrote %s: %d vectors × %d dims (mean skewness %.3f)\n",
		*out, ds.Len(), ds.Dims, ds.MeanSkewness())
}
