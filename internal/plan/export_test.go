package plan

// PairSel exposes the sampled pairwise selectivities to the reference
// optimizer in optimize_ref_test.go.
func (e *SamplingEstimator) PairSel() [][]float64 { return e.pairSel }
