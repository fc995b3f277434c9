package cdn

import (
	"context"
	"fmt"

	"anycastctx/internal/stats"
)

// AppProfile is one application class served by the CDN. Rings exist
// because applications carry regulatory restrictions (ISO 9001, HIPAA,
// sovereign-cloud rules, §2.2): each application is pinned to the largest
// ring whose compliance envelope it fits, and "users are always routed to
// the largest allowed ring — performance differences among rings are not
// taken into account."
type AppProfile struct {
	// Name labels the application class.
	Name string
	// Ring is the largest ring the class may use.
	Ring string
	// TrafficShare is the class's share of CDN traffic; shares sum to 1.
	TrafficShare float64
}

// PaperApps returns a representative application mix over the paper's
// rings: most traffic is unrestricted consumer web on the biggest ring,
// with progressively stricter compliance classes pinned to smaller rings.
func PaperApps() []AppProfile {
	return []AppProfile{
		{Name: "consumer-web", Ring: "R110", TrafficShare: 0.55},
		{Name: "productivity-suite", Ring: "R95", TrafficShare: 0.20},
		{Name: "enterprise-iso9001", Ring: "R74", TrafficShare: 0.12},
		{Name: "healthcare-hipaa", Ring: "R47", TrafficShare: 0.08},
		{Name: "government", Ring: "R28", TrafficShare: 0.05},
	}
}

// AppLatencyRow summarizes one application class's user experience.
type AppLatencyRow struct {
	App AppProfile
	// MedianRTTMs is the user-weighted median RTT to the class's ring.
	MedianRTTMs float64
	// RegulatoryCostMs is the median RTT penalty versus the largest ring —
	// what compliance restrictions cost in latency.
	RegulatoryCostMs float64
}

// AppLatencies measures every application class against its pinned ring
// using client-side measurements, quantifying the latency cost of the
// ring restriction.
func (c *CDN) AppLatencies(ctx context.Context, locs []Location, apps []AppProfile, seed int64) ([]AppLatencyRow, error) {
	if len(c.Rings) == 0 {
		return nil, fmt.Errorf("cdn: no rings")
	}
	rows := c.ClientMeasurementsCtx(ctx, locs, seed)
	medianFor := func(ring string) (float64, error) {
		var obs []stats.WeightedValue
		for _, r := range rows {
			if r.Ring == ring {
				obs = append(obs, stats.WeightedValue{Value: r.MedianRTTMs, Weight: r.Location.Users})
			}
		}
		cdf, err := stats.NewCDF(obs)
		if err != nil {
			return 0, fmt.Errorf("cdn: ring %s: %w", ring, err)
		}
		return cdf.Median(), nil
	}
	biggest := c.Rings[len(c.Rings)-1].Name
	base, err := medianFor(biggest)
	if err != nil {
		return nil, err
	}
	out := make([]AppLatencyRow, 0, len(apps))
	for _, app := range apps {
		if c.Ring(app.Ring) == nil {
			return nil, fmt.Errorf("cdn: app %s pinned to unknown ring %s", app.Name, app.Ring)
		}
		med, err := medianFor(app.Ring)
		if err != nil {
			return nil, err
		}
		out = append(out, AppLatencyRow{
			App:              app,
			MedianRTTMs:      med,
			RegulatoryCostMs: med - base,
		})
	}
	return out, nil
}

// TrafficWeightedMedianMs returns the mix-weighted median RTT across the
// application classes — what the "average request" experiences given the
// regulatory pinning.
func TrafficWeightedMedianMs(rows []AppLatencyRow) float64 {
	var sum, wsum float64
	for _, r := range rows {
		sum += r.MedianRTTMs * r.App.TrafficShare
		wsum += r.App.TrafficShare
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}
