package scenario

// CampaignShared reports whether the incremental path reused the base
// campaign outright (ring-only scenarios).
func (r *Result) CampaignShared() bool { return r.app.campaignShared }
