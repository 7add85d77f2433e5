package ml

import "repro/internal/dataset"

// DisparateImpact returns the ratio of favorable-outcome rates between the
// unprivileged and privileged groups [39 in the paper]: values near 1 are
// fair, values near 0 indicate discrimination against the unprivileged
// group. rows[i] identifies the dataset row behind prediction i (so callers
// can predict on encoded subsets); protected/unprivileged name the group.
// A group with no members or a privileged rate of zero yields a DI of 1
// (no evidence of disparity).
func DisparateImpact(d *dataset.Dataset, rows []int, pred []int, protected, unprivileged string) float64 {
	c := d.Column(protected)
	if c == nil || c.Kind == dataset.Numeric {
		return 1
	}
	var unprivFav, unprivN, privFav, privN float64
	for i, r := range rows {
		if c.NullAt(r) {
			continue
		}
		if c.StrAt(r) == unprivileged {
			unprivN++
			if pred[i] == 1 {
				unprivFav++
			}
		} else {
			privN++
			if pred[i] == 1 {
				privFav++
			}
		}
	}
	if unprivN == 0 || privN == 0 || privFav == 0 {
		return 1
	}
	return (unprivFav / unprivN) / (privFav / privN)
}

// NormalizedDisparateImpact folds a DI ratio into a malfunction score in
// [0,1]: 0 for perfect parity (DI = 1), approaching 1 for extreme disparity
// in either direction.
func NormalizedDisparateImpact(di float64) float64 {
	if di <= 0 {
		return 1
	}
	if di > 1 {
		di = 1 / di
	}
	return 1 - di
}
