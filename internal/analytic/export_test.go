package analytic

// PointwiseSaturationPoint runs the saturation search over the point-wise
// Model.Evaluate: the reference the Grid-backed searches are checked against.
func PointwiseSaturationPoint(m *Model, start, limit, tol float64) float64 {
	return saturationPoint(m.Evaluate, start, limit, tol)
}
