package eigen

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"eigenpro/internal/mat"
)

func randSym(rng *rand.Rand, n int) *mat.Dense {
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func randPSD(rng *rand.Rand, n int) *mat.Dense {
	b := mat.NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return mat.MulT(b, b)
}

// checkSystem verifies A V = V diag(λ), VᵀV = I and descending order.
func checkSystem(t *testing.T, a *mat.Dense, s *System, tol float64) {
	t.Helper()
	n := a.Rows
	if len(s.Values) != s.Vectors.Cols {
		t.Fatalf("values/vectors count mismatch: %d vs %d", len(s.Values), s.Vectors.Cols)
	}
	for i := 1; i < len(s.Values); i++ {
		if s.Values[i] > s.Values[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", s.Values)
		}
	}
	if r := Residual(a, s); r > tol {
		t.Fatalf("residual %g exceeds tol %g (n=%d)", r, tol, n)
	}
	vtv := mat.TMul(s.Vectors, s.Vectors)
	if !mat.Equal(vtv, mat.Eye(s.Vectors.Cols), 1e-8) {
		t.Fatal("eigenvectors not orthonormal")
	}
}

func TestSymDiagonal(t *testing.T) {
	a := mat.NewDense(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 5)
	a.Set(2, 2, 3)
	s, err := Sym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, 1}
	for i, w := range want {
		if math.Abs(s.Values[i]-w) > 1e-12 {
			t.Fatalf("Values = %v, want %v", s.Values, want)
		}
	}
	checkSystem(t, a, s, 1e-12)
}

func TestSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := mat.NewDenseData(2, 2, []float64{2, 1, 1, 2})
	s, err := Sym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Values[0]-3) > 1e-12 || math.Abs(s.Values[1]-1) > 1e-12 {
		t.Fatalf("Values = %v, want [3 1]", s.Values)
	}
	checkSystem(t, a, s, 1e-12)
}

func TestSymRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 5, 10, 30, 80} {
		a := randSym(rng, n)
		s, err := Sym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkSystem(t, a, s, 1e-8*float64(n))
	}
}

func TestSymTraceAndFrobeniusInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randSym(rng, 25)
	s, err := Sym(a)
	if err != nil {
		t.Fatal(err)
	}
	sumVals, sumSq := 0.0, 0.0
	for _, v := range s.Values {
		sumVals += v
		sumSq += v * v
	}
	if math.Abs(sumVals-a.Trace()) > 1e-9 {
		t.Fatalf("sum of eigenvalues %v != trace %v", sumVals, a.Trace())
	}
	f := a.FrobeniusNorm()
	if math.Abs(sumSq-f*f) > 1e-8*(1+f*f) {
		t.Fatalf("sum λ² %v != ||A||_F² %v", sumSq, f*f)
	}
}

func TestSymNonSquareError(t *testing.T) {
	if _, err := Sym(mat.NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSymEmpty(t *testing.T) {
	s, err := Sym(mat.NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 0 {
		t.Fatal("empty matrix must yield empty system")
	}
}

func TestJacobiMatchesSym(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{2, 5, 12, 40} {
		a := randSym(rng, n)
		s1, err := Sym(a)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Jacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s1.Values {
			if math.Abs(s1.Values[i]-s2.Values[i]) > 1e-8 {
				t.Fatalf("n=%d eigenvalue %d: QL %v vs Jacobi %v", n, i, s1.Values[i], s2.Values[i])
			}
		}
		checkSystem(t, a, s2, 1e-8*float64(n))
	}
}

func TestTopQSymMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{10, 40, 120} {
		a := randPSD(rng, n)
		full, err := Sym(a)
		if err != nil {
			t.Fatal(err)
		}
		q := 5
		top, err := TopQSym(a, q, TopQOptions{Iters: 40, Oversample: 15, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(top.Values) != q {
			t.Fatalf("got %d values, want %d", len(top.Values), q)
		}
		for i := 0; i < q; i++ {
			rel := math.Abs(top.Values[i]-full.Values[i]) / (1 + math.Abs(full.Values[i]))
			if rel > 1e-5 {
				t.Fatalf("n=%d top eigenvalue %d: %v vs full %v", n, i, top.Values[i], full.Values[i])
			}
		}
		checkSystem(t, a, top, 1e-4*float64(n))
	}
}

func TestTopQSymEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randPSD(rng, 8)
	if _, err := TopQSym(a, 9, TopQOptions{}); err == nil {
		t.Fatal("expected error for q > n")
	}
	s, err := TopQSym(a, 0, TopQOptions{})
	if err != nil || len(s.Values) != 0 {
		t.Fatalf("q=0 should yield empty system, got %v, %v", s, err)
	}
	full, err := TopQSym(a, 8, TopQOptions{Iters: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSystem(t, a, full, 1e-5)
}

func TestTopQDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randPSD(rng, 20)
	s1, _ := TopQSym(a, 3, TopQOptions{Seed: 42})
	s2, _ := TopQSym(a, 3, TopQOptions{Seed: 42})
	for i := range s1.Values {
		if s1.Values[i] != s2.Values[i] {
			t.Fatal("TopQSym not deterministic for fixed seed")
		}
	}
}

// columnTopQSym is TopQSym as it ran on the column-major basis Q (n x b),
// kept as the reference TopQSym must equal bit for bit: Mul for A Q and the
// Ritz vectors, TMul for Qᵀ A Q. Its Gram-Schmidt runs down the columns
// (TestOrthonormalizeRowsBitExact in internal/mat pins that
// OrthonormalizeRows on Qᵀ equals it).
func columnTopQSym(a *mat.Dense, q, iters, over int, seed int64) (*System, error) {
	n := a.Rows
	if q+over > n {
		over = n - q
	}
	b := q + over
	orth := func(x *mat.Dense) *mat.Dense {
		xt := x.T()
		mat.OrthonormalizeRows(xt)
		return xt.T()
	}
	rng := rand.New(rand.NewSource(seed))
	probe := mat.NewDense(n, b)
	for i := range probe.Data {
		probe.Data[i] = rng.NormFloat64()
	}
	qblock := orth(probe)
	for it := 0; it < iters; it++ {
		qblock = orth(mat.Mul(a, qblock))
	}
	small, err := Sym(mat.TMul(qblock, mat.Mul(a, qblock)))
	if err != nil {
		return nil, err
	}
	top := small.TopQ(q)
	return &System{Values: top.Values, Vectors: mat.Mul(qblock, top.Vectors)}, nil
}

// gaussGram returns the Gaussian kernel matrix of n random points in d
// dimensions at bandwidth sigma; a small sigma underflows far pairs to
// exact zeros, which the column-major Mul skipped.
func gaussGram(rng *rand.Rand, n, d int, sigma float64) *mat.Dense {
	x := mat.NewDense(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, math.Exp(-mat.SqDist(x.RowView(i), x.RowView(j))/float64(2*sigma*sigma)))
		}
	}
	return a
}

// TestTopQSymBitExact pins the row-major subspace iteration to the
// column-major one it replaced: the same values and vectors bit for bit,
// at the set-up's shapes and at GOMAXPROCS 1, 2 and 8.
func TestTopQSymBitExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(27))
	type qover struct{ q, over int }
	set := []qover{{1, 0}, {7, 10}, {79, 20}}
	inputs := []struct {
		name  string
		a     *mat.Dense
		cases []qover
	}{
		{"gauss-401", gaussGram(rng, 401, 6, 2), set},
		{"sparse-gauss-500", gaussGram(rng, 500, 6, 0.1), set},
		{"psd-500", randPSD(rng, 500), set},
		// The oversampling clamps to n-q, so the block is the whole space.
		{"psd-61", randPSD(rng, 61), []qover{{58, 20}, {61, 0}}},
	}
	for _, in := range inputs {
		for _, c := range in.cases {
			want, err := columnTopQSym(in.a, c.q, 2, c.over, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got, err := TopQSym(in.a, c.q, TopQOptions{Iters: 2, Oversample: c.over, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range want.Values {
					if math.Float64bits(got.Values[i]) != math.Float64bits(v) {
						t.Fatalf("%s q=%d GOMAXPROCS=%d: value %d = %v, want %v", in.name, c.q, procs, i, got.Values[i], v)
					}
				}
				for i, v := range want.Vectors.Data {
					if math.Float64bits(got.Vectors.Data[i]) != math.Float64bits(v) {
						t.Fatalf("%s q=%d GOMAXPROCS=%d: vector element %d = %v, want %v", in.name, c.q, procs, i, got.Vectors.Data[i], v)
					}
				}
			}
		}
	}
}

// BenchmarkTopQSym runs TopQSym at the spectrum set-up's shape: a 500x500
// subsample kernel matrix, q=125 with 20 oversampling directions and 12
// iterations.
func BenchmarkTopQSym(b *testing.B) {
	a := randPSD(rand.New(rand.NewSource(28)), 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopQSym(a, 125, TopQOptions{Iters: 12, Oversample: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSystemTopQ(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randSym(rng, 10)
	s, err := Sym(a)
	if err != nil {
		t.Fatal(err)
	}
	top := s.TopQ(4)
	if len(top.Values) != 4 || top.Vectors.Cols != 4 {
		t.Fatal("TopQ truncation wrong shape")
	}
	for i := 0; i < 4; i++ {
		if top.Values[i] != s.Values[i] {
			t.Fatal("TopQ must keep leading eigenvalues")
		}
	}
}

// Property: eigendecomposition reconstructs the matrix: V diag(λ) Vᵀ == A.
func TestQuickSymReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := randSym(r, n)
		s, err := Sym(a)
		if err != nil {
			return false
		}
		lam := mat.NewDense(n, n)
		for i, v := range s.Values {
			lam.Set(i, i, v)
		}
		recon := mat.Mul(s.Vectors, mat.MulT(lam, s.Vectors))
		return mat.Equal(recon, a, 1e-7*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: PSD matrices have non-negative spectra (within roundoff).
func TestQuickPSDNonNegativeSpectrum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := randPSD(r, n)
		s, err := Sym(a)
		if err != nil {
			return false
		}
		for _, v := range s.Values {
			if v < -1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
