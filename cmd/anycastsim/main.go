// Command anycastsim builds the simulated measurement environment and
// prints its inventory: topology, deployments, populations, datasets, and
// per-letter catchment summaries. Useful for inspecting a world before
// running experiments against it.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"anycastctx"
	"anycastctx/internal/stage"
	"anycastctx/internal/stats"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "world seed")
		scale     = flag.Float64("scale", 0.25, "world scale in (0,1]")
		catchment = flag.Bool("catchments", false, "print per-letter catchment summaries")
		dump      = flag.String("dump", "", "directory to write the world's datasets as CSV")
	)
	flag.Parse()
	if err := validateFlags(*scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	w, err := anycastctx.BuildWorld(anycastctx.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *dump != "" {
		if err := dumpDatasets(context.Background(), w, *dump); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "datasets written to %s\n", *dump)
	}

	fmt.Printf("world: seed %d scale %.2f\n", *seed, *scale)
	fmt.Printf("  regions:    %d\n", len(w.Regions()))
	fmt.Printf("  ASes:       %d (%d tier-1, %d transit, %d eyeball)\n",
		w.Graph().Len(), len(w.Graph().Tier1s()), len(w.Graph().Transits()), len(w.Graph().Eyeballs()))
	fmt.Printf("  users:      %.0fM across %d recursive /24s\n",
		w.Pop().TotalUsers/1e6, len(w.Pop().Recursives))
	fmt.Printf("  root zone:  %d TLDs\n", w.Zone().Len())
	fmt.Printf("  atlas:      %d probes in %d ASes\n", len(w.Atlas().Probes), w.Atlas().ASCount())

	pre := w.Campaign().Preprocess()
	fmt.Printf("\nDITL pre-processing funnel (queries/day):\n")
	fmt.Printf("  raw:       %14.0f\n", pre.RawPerDay)
	fmt.Printf("  - invalid: %14.0f\n", pre.InvalidPerDay)
	fmt.Printf("  - PTR:     %14.0f\n", pre.PTRPerDay)
	fmt.Printf("  - private: %14.0f\n", pre.PrivatePerDay)
	fmt.Printf("  - IPv6:    %14.0f\n", pre.V6PerDay)
	fmt.Printf("  retained:  %14.0f\n", pre.RetainedPerDay)

	fmt.Printf("\nroot letters:\n")
	for li, letter := range w.Letters() {
		fmt.Printf("  %-2s %3d global / %3d total sites", letter.Name, letter.NumGlobalSites(), letter.NumSites())
		if *catchment {
			// Catchment concentration: share of user weight on the single
			// busiest site.
			load := map[int]float64{}
			var total float64
			for ri := range w.Pop().Recursives {
				a := w.Campaign().At(li, ri)
				if !a.Reachable {
					continue
				}
				u := w.Pop().Recursives[ri].Users
				for _, s := range a.Sites() {
					load[s.SiteID] += u * s.Frac
				}
				total += u
			}
			var biggest float64
			for _, v := range load {
				if v > biggest {
					biggest = v
				}
			}
			fmt.Printf("  (busiest site carries %.0f%% of users across %d active sites)",
				100*biggest/total, len(load))
		}
		fmt.Println()
	}

	fmt.Printf("\nCDN rings:\n")
	for _, ring := range w.CDN().Rings {
		var rtts []float64
		for _, p := range w.Atlas().Probes[:min(len(w.Atlas().Probes), 200)] {
			if rt, ok := ring.Deployment.Route(p.ASN); ok {
				rtts = append(rtts, w.Model().BaseRTTMs(p.ASN, rt))
			}
		}
		fmt.Printf("  %-5s %3d front-ends, probe median RTT %.1f ms\n",
			ring.Name, ring.Size(), stats.Median(rtts))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// dumpDatasets writes the world's measurement datasets as CSV files, the
// shape a downstream analyst would consume: user locations, per-letter
// catchment assignments, CDN server-side logs, and recursive query rates.
// It demands the stages it writes, so the server-side logs are the
// world's server_logs stage, the rows the experiments read.
func dumpDatasets(ctx context.Context, w *anycastctx.World, dir string) error {
	if err := w.Demand(ctx, stage.Regions, stage.Population, stage.Rates, stage.Campaign,
		stage.Locations, stage.ServerLogs); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}

	// Locations.
	var b []byte
	b = append(b, "asn,region,lat,lon,users\n"...)
	for _, loc := range w.Locations() {
		b = append(b, fmt.Sprintf("%d,%s,%.4f,%.4f,%.0f\n",
			loc.ASN, w.Regions()[loc.Region].Name, loc.Loc.Lat, loc.Loc.Lon, loc.Users)...)
	}
	if err := write("locations.csv", string(b)); err != nil {
		return err
	}

	// Per-letter assignments (one file per letter).
	for li, name := range w.Campaign().LetterNames {
		var rows []byte
		rows = append(rows, "slash24,asn,site,path_len,base_rtt_ms,tcp_median_ms,letter_weight\n"...)
		for ri := range w.Pop().Recursives {
			a := w.Campaign().At(li, ri)
			if !a.Reachable {
				continue
			}
			rec := w.Pop().Recursives[ri]
			tcp := "-"
			if !math.IsNaN(a.TCPMedianRTTMs) {
				tcp = fmt.Sprintf("%.2f", a.TCPMedianRTTMs)
			}
			rows = append(rows, fmt.Sprintf("%s,%d,%d,%d,%.2f,%s,%.4f\n",
				rec.Key, rec.ASN, a.Route.SiteID, a.Route.PathLen, a.BaseRTTMs, tcp, a.LetterWeight)...)
		}
		if err := write(fmt.Sprintf("assignments-%s.csv", name), string(rows)); err != nil {
			return err
		}
	}

	// CDN server-side logs.
	var lg []byte
	lg = append(lg, "ring,asn,region,front_end,path_len,direct,median_rtt_ms,users\n"...)
	for _, r := range w.ServerLogs() {
		lg = append(lg, fmt.Sprintf("%s,%d,%s,%d,%d,%t,%.2f,%.0f\n",
			r.Ring, r.Location.ASN, w.Regions()[r.Location.Region].Name,
			r.FrontEnd, r.PathLen, r.Direct, r.MedianRTTMs, r.Location.Users)...)
	}
	if err := write("serverlogs.csv", string(lg)); err != nil {
		return err
	}

	// Recursive query rates.
	var rt []byte
	rt = append(rt, "slash24,users,user_q_per_day,root_valid,root_invalid,root_ptr,tcp_share,anomalous,forwarder\n"...)
	for _, r := range w.Rates() {
		rt = append(rt, fmt.Sprintf("%s,%.0f,%.0f,%.1f,%.1f,%.1f,%.3f,%t,%t\n",
			r.Rec.Key, r.Rec.Users, r.UserQueriesPerDay, r.RootValidPerDay,
			r.RootInvalidPerDay, r.RootPTRPerDay, r.TCPShare, r.Anomalous, r.Forwarder)...)
	}
	return write("rates.csv", string(rt))
}

// validateFlags rejects a -scale outside (0, 1] before the world is
// built: the world would read 0 as paper scale. The negated comparison
// also rejects NaN.
func validateFlags(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %v out of (0, 1]", scale)
	}
	return nil
}
