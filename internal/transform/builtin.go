package transform

import "repro/internal/profile"

// The built-in transformation builders, one per PVT class, mirroring the
// rightmost column of Figure 1. Each builder claims exactly the concrete
// profile types of its class and returns the candidate repairs in the
// paper's listed order; internal/pvt joins these with the discovery halves
// registered in internal/profile into the unified Class catalog.
func init() {
	MustRegisterBuilder("domain", func(p profile.Profile) []Transformation {
		switch q := p.(type) {
		case *profile.DomainCategorical:
			return []Transformation{&MapToDomain{Profile: q}}
		case *profile.DomainNumeric:
			return []Transformation{
				&LinearMap{Profile: q},
				&Winsorize{Profile: q},
			}
		case *profile.DomainText:
			return []Transformation{&ConformText{Profile: q}}
		case *profile.DomainTextMulti:
			return []Transformation{&ConformTextMulti{Profile: q}}
		}
		return nil
	})
	MustRegisterBuilder("outlier", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.Outlier); ok {
			return []Transformation{
				&ReplaceOutliers{Profile: q},
				&ClampOutliers{Profile: q},
			}
		}
		return nil
	})
	MustRegisterBuilder("missing", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.Missing); ok {
			return []Transformation{&Impute{Profile: q}}
		}
		return nil
	})
	MustRegisterBuilder("selectivity", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.Selectivity); ok {
			return []Transformation{&Resample{Profile: q}}
		}
		return nil
	})
	MustRegisterBuilder("indep", func(p profile.Profile) []Transformation {
		switch q := p.(type) {
		case *profile.IndepChi:
			return []Transformation{
				&ShuffleBreak{Prof: q, Attr: q.AttrB},
				&ShuffleBreak{Prof: q, Attr: q.AttrA},
			}
		case *profile.IndepPearson:
			return []Transformation{
				&NoiseBreak{Prof: q, Attr: q.AttrB},
				&NoiseBreak{Prof: q, Attr: q.AttrA},
			}
		}
		return nil
	})
	MustRegisterBuilder("indep-causal", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.IndepCausal); ok {
			return []Transformation{&CausalBreak{Prof: q}}
		}
		return nil
	})
	MustRegisterBuilder("distribution", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.Distribution); ok {
			return []Transformation{
				&QuantileMap{Profile: q},
				&MedianShift{Profile: q},
			}
		}
		return nil
	})
	MustRegisterBuilder("fd", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.FuncDep); ok {
			return []Transformation{&FDRepair{Profile: q}}
		}
		return nil
	})
	MustRegisterBuilder("unique", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.Unique); ok {
			return []Transformation{&Deduplicate{Profile: q}}
		}
		return nil
	})
	MustRegisterBuilder("inclusion", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.Inclusion); ok {
			return []Transformation{&RepairInclusion{Profile: q}}
		}
		return nil
	})
	MustRegisterBuilder("frequency", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.Frequency); ok {
			return []Transformation{&Recadence{Profile: q}}
		}
		return nil
	})
	MustRegisterBuilder("conditional", func(p profile.Profile) []Transformation {
		if q, ok := p.(*profile.Conditional); ok {
			return forConditional(q)
		}
		return nil
	})
}
