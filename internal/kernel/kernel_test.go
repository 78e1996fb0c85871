package kernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"eigenpro/internal/eigen"
	"eigenpro/internal/mat"
)

func randX(rng *rand.Rand, n, d int) *mat.Dense {
	x := mat.NewDense(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func allKernels() []Func {
	return []Func{Gaussian{Sigma: 2}, Laplacian{Sigma: 3}, Cauchy{Sigma: 1.5}}
}

func TestKernelValuesKnown(t *testing.T) {
	x := []float64{0, 0}
	z := []float64{3, 4} // distance 5, squared 25
	if got := (Gaussian{Sigma: 5}).Eval(x, z); math.Abs(got-math.Exp(-0.5)) > 1e-15 {
		t.Fatalf("gaussian = %v, want exp(-1/2)", got)
	}
	if got := (Laplacian{Sigma: 5}).Eval(x, z); math.Abs(got-math.Exp(-1)) > 1e-15 {
		t.Fatalf("laplacian = %v, want exp(-1)", got)
	}
	if got := (Cauchy{Sigma: 5}).Eval(x, z); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("cauchy = %v, want 0.5", got)
	}
}

func TestKernelNormalization(t *testing.T) {
	x := []float64{1.5, -2, 0.25}
	for _, k := range allKernels() {
		if got := k.Eval(x, x); math.Abs(got-1) > 1e-15 {
			t.Fatalf("%s: k(x,x) = %v, want 1", k.Name(), got)
		}
	}
}

func TestKernelSymmetryAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, k := range allKernels() {
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, 4)
			z := make([]float64, 4)
			for i := range x {
				x[i] = rng.NormFloat64() * 3
				z[i] = rng.NormFloat64() * 3
			}
			a, b := k.Eval(x, z), k.Eval(z, x)
			if a != b {
				t.Fatalf("%s not symmetric: %v vs %v", k.Name(), a, b)
			}
			if a <= 0 || a > 1 {
				t.Fatalf("%s out of (0,1]: %v", k.Name(), a)
			}
		}
	}
}

func TestKernelNames(t *testing.T) {
	if (Gaussian{Sigma: 5}).Name() != "gaussian(σ=5)" {
		t.Fatalf("name = %q", (Gaussian{Sigma: 5}).Name())
	}
	if (Laplacian{Sigma: 15}).Name() != "laplacian(σ=15)" {
		t.Fatalf("name = %q", (Laplacian{Sigma: 15}).Name())
	}
	if (Cauchy{Sigma: 2}).Name() != "cauchy(σ=2)" {
		t.Fatalf("name = %q", (Cauchy{Sigma: 2}).Name())
	}
}

func TestPairwiseSqDistMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randX(rng, 9, 5)
	b := randX(rng, 7, 5)
	d := PairwiseSqDist(a, b)
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			want := mat.SqDist(a.RowView(i), b.RowView(j))
			if math.Abs(d.At(i, j)-want) > 1e-10 {
				t.Fatalf("(%d,%d): %v vs %v", i, j, d.At(i, j), want)
			}
		}
	}
}

func TestPairwiseSqDistNonNegative(t *testing.T) {
	// Identical rows would produce tiny negatives without clamping.
	a := mat.NewDense(3, 4)
	for i := 0; i < 3; i++ {
		a.SetRow(i, []float64{1e8, -1e8, 3.7e7, 2.2e7})
	}
	d := PairwiseSqDist(a, a)
	for _, v := range d.Data {
		if v < 0 {
			t.Fatalf("negative squared distance %v", v)
		}
	}
}

func TestMatrixMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randX(rng, 8, 3)
	b := randX(rng, 6, 3)
	for _, k := range allKernels() {
		m := Matrix(k, a, b)
		if m.Rows != 8 || m.Cols != 6 {
			t.Fatalf("%s: dims %dx%d", k.Name(), m.Rows, m.Cols)
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 6; j++ {
				want := k.Eval(a.RowView(i), b.RowView(j))
				if math.Abs(m.At(i, j)-want) > 1e-10 {
					t.Fatalf("%s (%d,%d): %v vs %v", k.Name(), i, j, m.At(i, j), want)
				}
			}
		}
	}
}

// nonRadial wraps a Radial kernel hiding the Radial interface so tests can
// exercise the elementwise fallback in Matrix.
type nonRadial struct{ inner Func }

func (n nonRadial) Eval(x, z []float64) float64 { return n.inner.Eval(x, z) }
func (n nonRadial) Name() string                { return "wrapped-" + n.inner.Name() }

func TestMatrixFallbackPathMatchesRadialPath(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randX(rng, 10, 4)
	b := randX(rng, 5, 4)
	k := Gaussian{Sigma: 1.3}
	fast := Matrix(k, a, b)
	slow := Matrix(nonRadial{k}, a, b)
	if !mat.Equal(fast, slow, 1e-10) {
		t.Fatal("radial fast path disagrees with elementwise fallback")
	}
}

func TestMatrixIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := randX(rng, 6, 4)
	b := randX(rng, 9, 4)
	dst := mat.NewDense(6, 9)
	dst.Fill(999) // must be fully overwritten
	k := Laplacian{Sigma: 2}
	MatrixInto(dst, k, a, b)
	if !mat.Equal(dst, Matrix(k, a, b), 1e-14) {
		t.Fatal("MatrixInto disagrees with Matrix")
	}
	// Non-radial fallback path.
	MatrixInto(dst, nonRadial{k}, a, b)
	if !mat.Equal(dst, Matrix(k, a, b), 1e-12) {
		t.Fatal("MatrixInto fallback disagrees")
	}
}

// TestMatrixIntoEpilogueBitExact checks the radial path's parallel
// distance fix-up and kernel map against the serial per-element
// expressions, bit for bit, at a shape that splits across workers.
func TestMatrixIntoEpilogueBitExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(38))
	a, b := randX(rng, 130, 9), randX(rng, 521, 9)
	k := Laplacian{Sigma: 2}
	an, bn := mat.RowSumSq(a), mat.RowSumSq(b)
	want := mat.MulT(a, b)
	for i := 0; i < want.Rows; i++ {
		row := want.RowView(i)
		for j := range row {
			v := an[i] + bn[j] - 2*row[j]
			if v < 0 {
				v = 0
			}
			row[j] = k.OfSqDist(v)
		}
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := Matrix(k, a, b)
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("GOMAXPROCS=%d: element %d = %v, want %v", procs, i, got.Data[i], v)
			}
		}
	}
}

func TestMatrixIntoDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatrixInto(mat.NewDense(2, 2), Gaussian{Sigma: 1}, mat.NewDense(2, 3), mat.NewDense(3, 3))
}

func TestGramSymmetricUnitDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x := randX(rng, 12, 6)
	for _, k := range allKernels() {
		g := Gram(k, x)
		for i := 0; i < 12; i++ {
			if math.Abs(g.At(i, i)-1) > 1e-14 {
				t.Fatalf("%s: diagonal %v != 1", k.Name(), g.At(i, i))
			}
			for j := 0; j < i; j++ {
				if g.At(i, j) != g.At(j, i) {
					t.Fatalf("%s: Gram not symmetric", k.Name())
				}
			}
		}
	}
}

func TestGramPositiveSemiDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	x := randX(rng, 25, 4)
	for _, k := range allKernels() {
		g := Gram(k, x)
		s, err := eigen.Sym(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range s.Values {
			if v < -1e-9 {
				t.Fatalf("%s: negative eigenvalue %v — kernel not PSD", k.Name(), v)
			}
		}
	}
}

func TestBetaIsOneForRadial(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	x := randX(rng, 10, 3)
	for _, k := range allKernels() {
		if got := Beta(k, x); got != 1 {
			t.Fatalf("%s: Beta = %v, want 1", k.Name(), got)
		}
	}
	// Fallback path computes max diagonal.
	if got := Beta(nonRadial{Gaussian{Sigma: 2}}, x); math.Abs(got-1) > 1e-14 {
		t.Fatalf("Beta fallback = %v, want 1", got)
	}
}

// Property: kernel values decrease with distance for radial kernels.
func TestQuickRadialMonotoneDecreasing(t *testing.T) {
	kernels := []Radial{Gaussian{Sigma: 2}, Laplacian{Sigma: 2}, Cauchy{Sigma: 2}}
	f := func(d1, d2 float64) bool {
		a, b := math.Abs(d1), math.Abs(d2)
		if a > b {
			a, b = b, a
		}
		for _, k := range kernels {
			if k.OfSqDist(a) < k.OfSqDist(b)-1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gram matrices of random data are PSD via quadratic form check
// vᵀKv ≥ 0 (cheaper than eigendecomposition, more samples).
func TestQuickGramQuadraticFormNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		x := randX(r, n, 3)
		g := Gram(Laplacian{Sigma: 1.5}, x)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		return mat.Dot(v, mat.MulVec(g, v)) > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMatrixInto builds the trainer's batch kernel matrix at the
// train-mnist shape: a 377-row batch against 2000 d=784 centres.
func BenchmarkMatrixInto(b *testing.B) {
	rng := rand.New(rand.NewSource(39))
	xb, x := randX(rng, 377, 784), randX(rng, 2000, 784)
	dst := mat.NewDense(xb.Rows, x.Rows)
	k := Gaussian{Sigma: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatrixInto(dst, k, xb, x)
	}
}
