package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)

	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*(-5)+3*6 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVecCross(t *testing.T) {
	x, y, z := V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y cross z = %v, want x", got)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z cross x = %v, want y", got)
	}
}

// bound maps an arbitrary float into [-100, 100] so products of quick-check
// inputs stay far from overflow.
func bound(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return math.Mod(f, 100)
}

func TestVecCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V(bound(ax), bound(ay), bound(az))
		b := V(bound(bx), bound(by), bound(bz))
		c := a.Cross(b)
		eps := 1e-9 * (1 + a.Len2()) * (1 + b.Len2())
		return math.Abs(c.Dot(a)) <= eps && math.Abs(c.Dot(b)) <= eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecLenDist(t *testing.T) {
	v := V(3, 4, 0)
	if got := v.Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if got := v.Len2(); got != 25 {
		t.Errorf("Len2 = %v", got)
	}
	if got := V(1, 1, 1).Dist(V(1, 1, 1)); got != 0 {
		t.Errorf("Dist to self = %v", got)
	}
	if got := V(0, 0, 0).Dist2(V(1, 2, 2)); got != 9 {
		t.Errorf("Dist2 = %v", got)
	}
}

func TestVecNormalize(t *testing.T) {
	if got := V(0, 0, 0).Normalize(); got != V(0, 0, 0) {
		t.Errorf("Normalize zero = %v", got)
	}
	n := V(10, 0, 0).Normalize()
	if n != V(1, 0, 0) {
		t.Errorf("Normalize = %v", n)
	}
	f := func(x, y, z float64) bool {
		v := V(x, y, z)
		if v.Len() == 0 || math.IsInf(v.Len(), 0) || math.IsNaN(v.Len()) {
			return true
		}
		return almostEq(v.Normalize().Len(), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecMinMax(t *testing.T) {
	a, b := V(1, 5, 3), V(2, 4, 3)
	if got := a.Min(b); got != V(1, 4, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(2, 5, 3) {
		t.Errorf("Max = %v", got)
	}
}

// TestVecMinMaxBitsMatchMath pins Vec3.Min/Max to math.Min/math.Max bit
// for bit in each component: NaN in either argument (canonical, another
// payload, and against the infinity math.Min/Max let win over it), both
// zero signs in both orders, and the infinities EmptyBox is made of. A
// comparison kernel (a < b ? a : b) fails the NaN and signed-zero rows;
// the bare builtin min/max fails the NaN-against-infinity and payload
// rows.
func TestVecMinMaxBitsMatchMath(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	odd := math.Float64frombits(0x7ff4000000000123) // a non-canonical NaN
	negZero := math.Copysign(0, -1)
	pairs := [][2]float64{
		{nan, 1}, {1, nan}, {nan, nan}, {odd, 1}, {1, odd}, {odd, nan},
		{nan, -inf}, {-inf, nan}, {nan, inf}, {inf, nan}, {odd, -inf}, {inf, odd},
		{negZero, 0}, {0, negZero}, {negZero, negZero},
		{inf, -inf}, {-inf, inf}, {inf, 3}, {-inf, 3}, {3, inf}, {3, -inf},
		{1, 2}, {2, 1}, {-1.5, 1.5}, {math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, p := range pairs {
		a, b := p[0], p[1]
		for axis := 0; axis < 3; axis++ {
			v, w := [3]float64{7, 7, 7}, [3]float64{7, 7, 7}
			v[axis], w[axis] = a, b
			if got, want := V(v[0], v[1], v[2]).Min(V(w[0], w[1], w[2])).Component(axis), math.Min(a, b); !same(got, want) {
				t.Errorf("Min(%v, %v) axis %d = %x, math.Min = %x", a, b, axis, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := V(v[0], v[1], v[2]).Max(V(w[0], w[1], w[2])).Component(axis), math.Max(a, b); !same(got, want) {
				t.Errorf("Max(%v, %v) axis %d = %x, math.Max = %x", a, b, axis, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestVecLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(10, -10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != V(5, -5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVecComponent(t *testing.T) {
	v := V(7, 8, 9)
	for axis, want := range []float64{7, 8, 9} {
		if got := v.Component(axis); got != want {
			t.Errorf("Component(%d) = %v, want %v", axis, got, want)
		}
	}
}

func TestVecString(t *testing.T) {
	if got := V(1, 2.5, -3).String(); got != "(1, 2.5, -3)" {
		t.Errorf("String = %q", got)
	}
}
