package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD returns a random symmetric positive definite n x n matrix.
func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	spd := MulT(a, a) // A*Aᵀ is PSD
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // shift to make strictly PD
	}
	return spd
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := MulT(l, l)
		if !Equal(recon, a, 1e-8*float64(n)) {
			t.Fatalf("n=%d: L*Lᵀ != A", n)
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("n=%d: L not lower triangular at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	a := randSPD(rng, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := MulVec(a, x)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := CholeskySolve(l, b)
	for i := range got {
		if math.Abs(got[i]-x[i]) > 1e-7 {
			t.Fatalf("solve[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestCholeskySolveMat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 15
	a := randSPD(rng, n)
	x := randDense(rng, n, 4)
	b := Mul(a, x)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := CholeskySolveMat(l, b)
	if !Equal(got, x, 1e-7) {
		t.Fatal("CholeskySolveMat mismatch")
	}
}

func TestTriangularSolves(t *testing.T) {
	l := NewDenseData(3, 3, []float64{2, 0, 0, 1, 3, 0, -1, 2, 4})
	x := []float64{1, -2, 0.5}
	b := MulVec(l, x)
	got := SolveLowerTri(l, b)
	for i := range got {
		if math.Abs(got[i]-x[i]) > 1e-12 {
			t.Fatalf("SolveLowerTri[%d] = %v, want %v", i, got[i], x[i])
		}
	}
	bt := MulVec(l.T(), x)
	gotT := SolveUpperTriFromLowerT(l, bt)
	for i := range gotT {
		if math.Abs(gotT[i]-x[i]) > 1e-12 {
			t.Fatalf("SolveUpperTriFromLowerT[%d] = %v, want %v", i, gotT[i], x[i])
		}
	}
}

// columnMGS is the column-major two-pass modified Gram-Schmidt that
// OrthonormalizeRows replaced, kept as its reference: it orthonormalizes
// the columns of a (m x n, m >= n) through At/Set.
func columnMGS(a *Dense) *Dense {
	m, n := a.Rows, a.Cols
	q := a.Clone()
	for j := 0; j < n; j++ {
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < j; p++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += float64(q.At(i, p) * q.At(i, j))
				}
				for i := 0; i < m; i++ {
					q.Set(i, j, q.At(i, j)-float64(s*q.At(i, p)))
				}
			}
		}
		norm := 0.0
		for i := 0; i < m; i++ {
			norm += float64(q.At(i, j) * q.At(i, j))
		}
		norm = math.Sqrt(norm)
		if norm > 1e-300 {
			inv := 1.0 / norm
			for i := 0; i < m; i++ {
				q.Set(i, j, q.At(i, j)*inv)
			}
		} else {
			for i := 0; i < m; i++ {
				q.Set(i, j, 0)
			}
		}
	}
	return q
}

// checkOrthonormalizeRows runs OrthonormalizeRows on a copy of a and
// requires it to equal the column reference on aᵀ bit for bit.
func checkOrthonormalizeRows(t *testing.T, name string, a *Dense) {
	t.Helper()
	want := columnMGS(a.T()).T()
	got := a.Clone()
	OrthonormalizeRows(got)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("%s %dx%d: element %d = %v, want %v", name, a.Rows, a.Cols, i, got.Data[i], want.Data[i])
	}
}

// TestOrthonormalizeRowsBitExact pins the row-major Gram-Schmidt to the
// column-major one it replaced, on ragged shapes: 1x1, square, odd row
// counts, the subspace iteration's block shape, rank-deficient inputs and
// zero rows.
func TestOrthonormalizeRowsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, dims := range [][2]int{{1, 1}, {1, 9}, {2, 2}, {7, 7}, {3, 10}, {5, 12}, {13, 40}, {33, 33}, {29, 145}} {
		checkOrthonormalizeRows(t, "random", randDense(rng, dims[0], dims[1]))
	}
	// Row 2 repeats row 0 and row 3 is a multiple of row 1.
	dup := randDense(rng, 5, 11)
	copy(dup.RowView(2), dup.RowView(0))
	for i, v := range dup.RowView(1) {
		dup.Set(3, i, -3*v)
	}
	checkOrthonormalizeRows(t, "dependent", dup)
	checkOrthonormalizeRows(t, "multiple", NewDenseData(2, 3, []float64{1, 1, 1, 2, 2, 2}))
	zero := randDense(rng, 6, 9)
	zero.SetRow(0, make([]float64, 9))
	zero.SetRow(4, make([]float64, 9))
	checkOrthonormalizeRows(t, "zero rows", zero)
	checkOrthonormalizeRows(t, "all zero", NewDense(4, 4))
	// Rank 2 in 6 rows: every row is a combination of two.
	basis := randDense(rng, 2, 15)
	checkOrthonormalizeRows(t, "rank 2", Mul(randDense(rng, 6, 2), basis))
}

// FuzzOrthonormalizeRows checks OrthonormalizeRows against the column
// reference bit for bit on fuzzed shapes and values; dup makes one row a
// scaled copy of an earlier one.
func FuzzOrthonormalizeRows(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint8(0), int64(1))
	f.Add(uint8(12), uint8(12), uint8(5), int64(2))
	f.Fuzz(func(t *testing.T, rr, rextra, dup uint8, seed int64) {
		r := int(rr)%40 + 1
		c := r + int(rextra)%60
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, r, c)
		if d := int(dup) % (r + 1); d > 0 && d < r {
			for i, v := range a.RowView(d - 1) {
				a.Set(d, i, float64(dup)*v)
			}
		}
		checkOrthonormalizeRows(t, "fuzz", a)
	})
}

func TestOrthonormalizeRowsOrthonormalAndReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][2]int{{5, 5}, {4, 10}, {12, 40}} {
		a := randDense(rng, dims[0], dims[1])
		q := a.Clone()
		OrthonormalizeRows(q)
		// Q Qᵀ = I
		if !Equal(MulT(q, q), Eye(dims[0]), 1e-10) {
			t.Fatalf("dims %v: Q Qᵀ != I", dims)
		}
		// A = L Q with L = A Qᵀ lower triangular.
		l := MulT(a, q)
		if !Equal(Mul(l, q), a, 1e-10) {
			t.Fatalf("dims %v: L Q != A", dims)
		}
		for i := 0; i < dims[0]; i++ {
			for j := i + 1; j < dims[0]; j++ {
				if math.Abs(l.At(i, j)) > 1e-10 {
					t.Fatalf("dims %v: L not lower triangular at (%d,%d): %v", dims, i, j, l.At(i, j))
				}
			}
		}
	}
}

func TestOrthonormalizeRowsRankDeficient(t *testing.T) {
	// The second row is twice the first, and the projection cancels it
	// exactly, so it becomes zero.
	a := NewDenseData(2, 4, []float64{1, 1, 1, 1, 2, 2, 2, 2})
	q := a.Clone()
	OrthonormalizeRows(q)
	for _, v := range q.RowView(1) {
		if v != 0 {
			t.Fatalf("dependent row should become zero, got %v", q.RowView(1))
		}
	}
	if !Equal(Mul(MulT(a, q), q), a, 1e-10) {
		t.Fatal("L Q != A for rank-deficient input")
	}
}

func TestOrthonormalizeRowsSpansSameSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randDense(rng, 5, 20)
	q := a.Clone()
	OrthonormalizeRows(q)
	// Projecting A's rows onto span(Q's rows) must reproduce A: A Qᵀ Q == A.
	if !Equal(Mul(MulT(a, q), q), a, 1e-9) {
		t.Fatal("rows of Q do not span the rows of A")
	}
}

func TestOrthonormalizeRowsPanicsOnWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OrthonormalizeRows of a 3x2 matrix did not panic")
		}
	}()
	OrthonormalizeRows(NewDense(3, 2))
}

// Property: Cholesky solve returns a vector satisfying A x = b.
func TestQuickCholeskySolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		a := randSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := CholeskySolve(l, b)
		res := MulVec(a, x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
