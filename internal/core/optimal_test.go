package core

import (
	"testing"

	"anycastctx/internal/latency"
)

func TestCompareRoutingBGPNeverBeatsOptimal(t *testing.T) {
	w := buildWorld(t)
	model := latency.DefaultModel()
	for _, name := range []string{"B", "K", "L"} {
		d := w.camp.Letters[w.camp.LetterIndex(name)]
		rc, err := CompareRouting(w.g, d, model)
		if err != nil {
			t.Fatal(err)
		}
		if rc.ActualMedianMs < rc.OptimalMedianMs {
			t.Errorf("letter %s: actual median %.1f below optimal %.1f",
				name, rc.ActualMedianMs, rc.OptimalMedianMs)
		}
		if rc.MedianGapMs < 0 || rc.P95GapMs < rc.MedianGapMs {
			t.Errorf("letter %s: gap quantiles inconsistent: %.1f / %.1f",
				name, rc.MedianGapMs, rc.P95GapMs)
		}
		if rc.AtOptimalShare < 0 || rc.AtOptimalShare > 1 {
			t.Errorf("letter %s: at-optimal share %v", name, rc.AtOptimalShare)
		}
	}
}

func TestCompareRoutingLargerDeploymentLessOptimal(t *testing.T) {
	// The routing gap's *share of users at their closest site* falls as
	// the deployment grows (Fig 7a's efficiency trend, via the baseline).
	w := buildWorld(t)
	model := latency.DefaultModel()
	small, err := CompareRouting(w.g, w.camp.Letters[w.camp.LetterIndex("B")], model)
	if err != nil {
		t.Fatal(err)
	}
	large, err := CompareRouting(w.g, w.camp.Letters[w.camp.LetterIndex("L")], model)
	if err != nil {
		t.Fatal(err)
	}
	if large.AtOptimalShare > small.AtOptimalShare {
		t.Errorf("L at-optimal %.2f above B %.2f", large.AtOptimalShare, small.AtOptimalShare)
	}
	// But the big deployment still delivers lower absolute latency.
	if large.ActualMedianMs > small.ActualMedianMs {
		t.Errorf("L median %.1f above B median %.1f", large.ActualMedianMs, small.ActualMedianMs)
	}
}

func TestUnicastBaselineWorseThanAnycast(t *testing.T) {
	// The best single site cannot beat a multi-site anycast deployment's
	// optimal latency, and for global populations it is far worse than
	// even BGP-routed anycast for large deployments.
	w := buildWorld(t)
	model := latency.DefaultModel()
	d := w.camp.Letters[w.camp.LetterIndex("L")]
	site, uniMedian := UnicastBaseline(w.g, d, model)
	if site < 0 {
		t.Fatal("no unicast site found")
	}
	rc, err := CompareRouting(w.g, d, model)
	if err != nil {
		t.Fatal(err)
	}
	if uniMedian <= rc.OptimalMedianMs {
		t.Errorf("unicast median %.1f not above anycast optimal %.1f", uniMedian, rc.OptimalMedianMs)
	}
	if uniMedian <= rc.ActualMedianMs {
		t.Errorf("unicast median %.1f not above anycast actual %.1f (anycast should win for 138 sites)",
			uniMedian, rc.ActualMedianMs)
	}
}

func TestUnicastBaselineDeterministic(t *testing.T) {
	w := buildWorld(t)
	model := latency.DefaultModel()
	d := w.camp.Letters[0]
	s1, m1 := UnicastBaseline(w.g, d, model)
	s2, m2 := UnicastBaseline(w.g, d, model)
	if s1 != s2 || m1 != m2 {
		t.Error("unicast baseline not deterministic")
	}
}
