package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {64, 33, 17}, {130, 40, 65}} {
		a := randDense(rng, dims[0], dims[1])
		b := randDense(rng, dims[1], dims[2])
		got := Mul(a, b)
		want := MulNaive(a, b)
		if !Equal(got, want, 1e-10) {
			t.Fatalf("Mul mismatch for dims %v", dims)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 9, 9)
	if !Equal(Mul(a, Eye(9)), a, 1e-14) {
		t.Fatal("A*I != A")
	}
	if !Equal(Mul(Eye(9), a), a, 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(4, 2))
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 13, 7)
	b := randDense(rng, 21, 7)
	got := MulT(a, b)
	want := Mul(a, b.T())
	if !Equal(got, want, 1e-10) {
		t.Fatal("MulT != A*Bᵀ")
	}
}

func TestTMulMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 17, 6)
	b := randDense(rng, 17, 11)
	got := TMul(a, b)
	want := Mul(a.T(), b)
	if !Equal(got, want, 1e-10) {
		t.Fatal("TMul != Aᵀ*B")
	}
}

func TestMulVecAndTMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 8, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xm := NewDenseData(5, 1, x)
	want := Mul(a, xm)
	got := MulVec(a, x)
	for i := range got {
		if diff := got[i] - want.At(i, 0); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
	y := make([]float64, 8)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	wantT := Mul(a.T(), NewDenseData(8, 1, y))
	gotT := TMulVec(a, y)
	for i := range gotT {
		if diff := gotT[i] - wantT.At(i, 0); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("TMulVec[%d] = %v, want %v", i, gotT[i], wantT.At(i, 0))
		}
	}
}

func TestMulTToReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := randDense(rng, 7, 4)
	b := randDense(rng, 9, 4)
	dst := NewDense(7, 9)
	dst.Fill(-5)
	MulTTo(dst, a, b)
	if !Equal(dst, Mul(a, b.T()), 1e-12) {
		t.Fatal("MulTTo != A*Bᵀ")
	}
}

func TestMulTToDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MulTTo(NewDense(2, 2), NewDense(2, 3), NewDense(4, 3))
}

func TestMulToReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 6, 4)
	b := randDense(rng, 4, 3)
	dst := NewDense(6, 3)
	dst.Fill(123) // must be fully overwritten
	MulTo(dst, a, b)
	if !Equal(dst, MulNaive(a, b), 1e-12) {
		t.Fatal("MulTo did not overwrite dst correctly")
	}
}

// Property: (A*B)*C == A*(B*C) (associativity up to roundoff).
func TestQuickMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1, n2, n3, n4 := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randDense(r, n1, n2)
		b := randDense(r, n2, n3)
		c := randDense(r, n3, n4)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return Equal(left, right, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestQuickMulTransposeRule(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1, n2, n3 := 1+r.Intn(15), 1+r.Intn(15), 1+r.Intn(15)
		a := randDense(r, n1, n2)
		b := randDense(r, n2, n3)
		return Equal(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mul is linear in its first argument.
func TestQuickMulLinearity(t *testing.T) {
	f := func(seed int64, sRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		s := float64(int(sRaw*100)%7) / 3.0
		n1, n2, n3 := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a1 := randDense(r, n1, n2)
		a2 := randDense(r, n1, n2)
		b := randDense(r, n2, n3)
		left := Mul(Add(a1, Scale(s, a2)), b)
		right := Add(Mul(a1, b), Scale(s, Mul(a2, b)))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports the first element where got and want differ in any bit,
// or ok when every element is identical.
func sameBits(got, want *Dense) (i int, ok bool) {
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			return i, false
		}
	}
	return 0, true
}

// TestMulTToBitExact pins MulTTo's contract: every output is the sequential
// k-order dot product, so it equals MulNaive(a, bᵀ) exactly, on ragged
// shapes around the 4x2 block and the 64-row tile, at every GOMAXPROCS and
// every tile width. The 255/257-row cases with k=7 and 63/65 b-rows are
// large enough to split across workers.
func TestMulTToBitExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 255, 257} {
		for _, m := range []int{1, 2, 3, 5, 7, 63, 65} {
			for _, k := range []int{1, 7} {
				a, b := randDense(rng, n, k), randDense(rng, m, k)
				want := MulNaive(a, b.T())
				shape := fmt.Sprintf("%dx%dx%d", n, m, k)
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					got := NewDense(n, m)
					got.Fill(math.NaN())
					MulTTo(got, a, b)
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("%s GOMAXPROCS=%d: element %d = %v, want %v", shape, procs, i, got.Data[i], want.Data[i])
					}
				}
				for _, tile := range []int{1, 3, 64, m} {
					got := NewDense(n, m)
					mulTTRows(got, a, b, 0, n, tile)
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("%s tile %d: element %d = %v, want %v", shape, tile, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// FuzzMulTTo checks MulTTo and every tile width against MulNaive(a, bᵀ)
// bit for bit on fuzzed shapes and values.
func FuzzMulTTo(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(3), uint8(1), int64(1))
	f.Add(uint8(9), uint8(65), uint8(7), uint8(64), int64(2))
	f.Fuzz(func(t *testing.T, rn, rm, rk, rtile uint8, seed int64) {
		n, m, k := int(rn)%40+1, int(rm)%130+1, int(rk)%50+1
		tile := int(rtile)%70 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := randDense(rng, n, k), randDense(rng, m, k)
		want := MulNaive(a, b.T())
		got := NewDense(n, m)
		MulTTo(got, a, b)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%dx%dx%d: element %d = %v, want %v", n, m, k, i, got.Data[i], want.Data[i])
		}
		got.Zero()
		mulTTRows(got, a, b, 0, n, tile)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%dx%dx%d tile %d: element %d = %v, want %v", n, m, k, tile, i, got.Data[i], want.Data[i])
		}
	})
}

// BenchmarkMulTTo runs MulTTo at the shapes the system runs it at: the
// trainer's batch distance GEMM (m x n x d), the spectrum's Gram matrix on
// its subsample, and serving batches of 1 and 32 rows against a 4000-centre
// d=256 model.
func BenchmarkMulTTo(b *testing.B) {
	for _, c := range []struct {
		name    string
		n, m, k int
	}{
		{"train-377x2000x784", 377, 2000, 784},
		{"gram-500x500x784", 500, 500, 784},
		{"serve-1x4000x256", 1, 4000, 256},
		{"serve-32x4000x256", 32, 4000, 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			x, y := randDense(rng, c.n, c.k), randDense(rng, c.m, c.k)
			dst := NewDense(c.n, c.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulTTo(dst, x, y)
			}
			flops := 2 * float64(c.n) * float64(c.m) * float64(c.k) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randDense(rng, 256, 256)
	y := randDense(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}
