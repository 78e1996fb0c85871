package kernel

import (
	"fmt"
	"math"
)

// Matérn kernels interpolate in smoothness between the Laplacian (ν=1/2)
// and the Gaussian (ν→∞); their polynomially-corrected exponential decay
// gives slower kernel-spectrum decay than the Gaussian, which per the
// paper's analysis translates into a larger critical batch size m*.

// Matern32 is the Matérn kernel with ν = 3/2:
// k(x,z) = (1 + √3 r/σ) · exp(−√3 r/σ) with r = ‖x−z‖.
type Matern32 struct {
	// Sigma is the length scale σ > 0.
	Sigma float64
}

// Eval implements Func.
func (m Matern32) Eval(x, z []float64) float64 { return m.OfSqDist(sqDist(x, z)) }

// OfSqDist implements Radial.
func (m Matern32) OfSqDist(d2 float64) float64 {
	if d2 <= 0 {
		return 1
	}
	t := math.Sqrt(3*d2) / m.Sigma
	return (1 + t) * math.Exp(-t)
}

// Name implements Func.
func (m Matern32) Name() string { return fmt.Sprintf("matern32(σ=%g)", m.Sigma) }

// Matern52 is the Matérn kernel with ν = 5/2:
// k(x,z) = (1 + √5 r/σ + 5r²/(3σ²)) · exp(−√5 r/σ).
type Matern52 struct {
	// Sigma is the length scale σ > 0.
	Sigma float64
}

// Eval implements Func.
func (m Matern52) Eval(x, z []float64) float64 { return m.OfSqDist(sqDist(x, z)) }

// OfSqDist implements Radial.
func (m Matern52) OfSqDist(d2 float64) float64 {
	if d2 <= 0 {
		return 1
	}
	t := math.Sqrt(5*d2) / m.Sigma
	return (1 + t + 5*d2/(3*m.Sigma*m.Sigma)) * math.Exp(-t)
}

// Name implements Func.
func (m Matern52) Name() string { return fmt.Sprintf("matern52(σ=%g)", m.Sigma) }

// sqDist avoids importing mat for the two Matérn Eval paths.
func sqDist(x, z []float64) float64 {
	if len(x) != len(z) {
		panic(fmt.Sprintf("kernel: sqDist length mismatch %d vs %d", len(x), len(z)))
	}
	s := 0.0
	for i, v := range x {
		d := v - z[i]
		s += float64(d * d)
	}
	return s
}
