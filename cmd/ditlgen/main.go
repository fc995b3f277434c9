// Command ditlgen emits DITL-style pcap captures for a root letter's
// sites: real pcap files with IPv4/UDP/TCP DNS packets that any pcap tool
// (or cmd/pcapdump) can read.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"anycastctx"
	"anycastctx/internal/stage"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "world seed")
		scale   = flag.Float64("scale", 0.15, "world scale in (0,1]")
		letter  = flag.String("letter", "C", "root letter to capture")
		outDir  = flag.String("out", ".", "output directory")
		maxPkts = flag.Int("packets", 20000, "max packets per site capture")
		sites   = flag.Int("sites", 2, "number of sites to capture (from site 0)")
	)
	flag.Parse()
	if err := validateFlags(*scale, *maxPkts, *sites); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	w, err := anycastctx.NewWorld(anycastctx.Config{Seed: *seed, Scale: *scale})
	if err == nil {
		err = w.Demand(context.Background(), stage.Letters, stage.Campaign)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	li := w.Campaign().LetterIndex(*letter)
	if li < 0 {
		fmt.Fprintf(os.Stderr, "unknown letter %q (have %v)\n", *letter, w.Campaign().LetterNames)
		os.Exit(2)
	}
	dep := w.Letters()[li]
	n := *sites
	if n > dep.NumSites() {
		n = dep.NumSites()
	}
	for s := 0; s < n; s++ {
		path := filepath.Join(*outDir, fmt.Sprintf("ditl-%s-site%d.pcap", *letter, s))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		written, err := w.Campaign().EmitSiteCapture(f, li, s, *maxPkts, *seed*31)
		cerr := f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			os.Exit(1)
		}
		fmt.Printf("%s: %d packets\n", path, written)
	}
}

// validateFlags rejects a -scale outside (0, 1], and packet and site
// counts below 1, before the world is built: the world would read scale
// 0 as paper scale, and a capture of no packets, or of no sites, writes
// nothing useful. The negated scale comparison also rejects NaN.
func validateFlags(scale float64, packets, sites int) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %v out of (0, 1]", scale)
	}
	if packets < 1 {
		return fmt.Errorf("-packets %d is below 1", packets)
	}
	if sites < 1 {
		return fmt.Errorf("-sites %d is below 1", sites)
	}
	return nil
}
