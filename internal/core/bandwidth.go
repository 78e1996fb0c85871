package core

import (
	"fmt"
	"math"
	"math/rand"

	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/internal/metrics"
)

// BandwidthCandidate pairs a kernel with its cross-validation score.
type BandwidthCandidate struct {
	// Kernel is the candidate kernel.
	Kernel kernel.Func
	// Error is the mean validation classification error across folds.
	Error float64
}

// BandwidthConfig controls SelectBandwidth.
type BandwidthConfig struct {
	// Subsample is the number of points used for cross-validation
	// (paper Appendix B: "the kernel bandwidth σ is selected through
	// cross-validation on a small subsampled dataset"). Default
	// min(n, 600).
	Subsample int
	// Folds is the number of CV folds (default 3).
	Folds int
	// Epochs is the training budget per fold (default 5).
	Epochs int
	// Seed fixes subsampling and fold assignment.
	Seed int64
}

// SelectBandwidth picks the kernel with the lowest k-fold validation
// classification error on a subsample, training each fold with EigenPro 2.0
// and automatic parameters. It returns the winner together with the scored
// candidate list (sorted as given). labels must parallel x rows; y is the
// one-hot encoding.
func SelectBandwidth(cands []kernel.Func, x, y *mat.Dense, labels []int, cfg BandwidthConfig) (kernel.Func, []BandwidthCandidate, error) {
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("core: SelectBandwidth with no candidates")
	}
	n := x.Rows
	if y.Rows != n || len(labels) != n {
		return nil, nil, fmt.Errorf("core: SelectBandwidth shape mismatch: x=%d y=%d labels=%d", n, y.Rows, len(labels))
	}
	sub := cfg.Subsample
	if sub == 0 {
		sub = 600
	}
	if sub > n {
		sub = n
	}
	folds := cfg.Folds
	if folds == 0 {
		folds = 3
	}
	if folds < 2 || sub/folds < 4 {
		return nil, nil, fmt.Errorf("core: SelectBandwidth needs >= 2 folds with >= 4 points each (subsample %d, folds %d)", sub, folds)
	}
	epochs := cfg.Epochs
	if epochs == 0 {
		epochs = 5
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := rng.Perm(n)[:sub]
	xs := x.SelectRows(idx)
	ys := y.SelectRows(idx)
	ls := make([]int, sub)
	for i, j := range idx {
		ls[i] = labels[j]
	}

	scored := make([]BandwidthCandidate, len(cands))
	for ci, k := range cands {
		total, counted := 0.0, 0
		for f := 0; f < folds; f++ {
			var trainIdx, valIdx []int
			for i := 0; i < sub; i++ {
				if i%folds == f {
					valIdx = append(valIdx, i)
				} else {
					trainIdx = append(trainIdx, i)
				}
			}
			res, err := Train(Config{
				Kernel: k,
				Method: MethodEigenPro2,
				Epochs: epochs,
				Seed:   cfg.Seed + int64(f),
			}, xs.SelectRows(trainIdx), ys.SelectRows(trainIdx))
			if err != nil {
				// A diverging candidate is scored as maximally bad rather
				// than aborting the search.
				total += 1
				counted++
				continue
			}
			valLabels := make([]int, len(valIdx))
			for vi, i := range valIdx {
				valLabels[vi] = ls[i]
			}
			pred := res.Model.Predict(xs.SelectRows(valIdx))
			total += metrics.ClassificationError(pred, valLabels)
			counted++
		}
		scored[ci] = BandwidthCandidate{Kernel: k, Error: total / float64(counted)}
	}

	best := 0
	for i := 1; i < len(scored); i++ {
		if scored[i].Error < scored[best].Error {
			best = i
		}
	}
	if math.IsNaN(scored[best].Error) {
		return nil, scored, fmt.Errorf("core: SelectBandwidth: all candidates failed")
	}
	return scored[best].Kernel, scored, nil
}

// GaussianBandwidthLadder returns Gaussian kernels with bandwidths spaced
// geometrically around an estimate of the median pairwise distance of a
// data subsample — a standard starting grid for the paper's
// cross-validation step.
func GaussianBandwidthLadder(x *mat.Dense, rungs int, seed int64) []kernel.Func {
	med := MedianPairwiseDistance(x, 256, seed)
	if med == 0 {
		med = 1
	}
	if rungs < 1 {
		rungs = 5
	}
	out := make([]kernel.Func, rungs)
	for i := range out {
		factor := math.Pow(2, float64(i)-float64(float64(rungs-1)/2))
		out[i] = kernel.Gaussian{Sigma: med * factor}
	}
	return out
}

// MedianPairwiseDistance estimates the median Euclidean distance between
// rows of x from a random subsample of at most maxPoints rows.
func MedianPairwiseDistance(x *mat.Dense, maxPoints int, seed int64) float64 {
	n := x.Rows
	if n < 2 {
		return 0
	}
	if maxPoints < 2 {
		maxPoints = 2
	}
	if maxPoints > n {
		maxPoints = n
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(n)[:maxPoints]
	sub := x.SelectRows(idx)
	d2 := kernel.PairwiseSqDist(sub, sub)
	var dists []float64
	for i := 0; i < maxPoints; i++ {
		for j := 0; j < i; j++ {
			dists = append(dists, math.Sqrt(d2.At(i, j)))
		}
	}
	if len(dists) == 0 {
		return 0
	}
	// Median by partial selection.
	k := len(dists) / 2
	return quickSelect(dists, k)
}

// quickSelect returns the k-th smallest element (0-indexed), reordering s.
func quickSelect(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		pivot := s[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return s[k]
}
