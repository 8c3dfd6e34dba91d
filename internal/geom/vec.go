// Package geom provides the 3-D geometric primitives used throughout the
// OCTOPUS library: vectors, axis-aligned bounding boxes and the distance
// computations needed by range queries, directed walks and spatial indexes.
//
// All types are plain value types with no hidden state so they can be
// embedded in hot data structures (vertex arrays, R-tree nodes) without
// indirection.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in 3-D space.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product of v and w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Len2 returns the squared Euclidean length of v. It avoids the square root
// and is the preferred form for comparisons.
func (v Vec3) Len2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec3) Dist2(w Vec3) float64 { return v.Sub(w).Len2() }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Min returns the component-wise minimum of v and w, bit-identical to
// math.Min per component. The builtin min agrees with math.Min on every
// non-NaN pair (including min(-0, +0) = -0) and compiles to a few
// instructions, where math.Min is an assembly call on amd64; it differs
// only when an operand is NaN — math.Min lets -Inf win over NaN and
// returns the canonical NaN, the builtin returns NaN as is — so a NaN
// result takes math.Min's answer instead.
func (v Vec3) Min(w Vec3) Vec3 {
	r := Vec3{min(v.X, w.X), min(v.Y, w.Y), min(v.Z, w.Z)}
	if r != r {
		return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
	}
	return r
}

// Max returns the component-wise maximum of v and w, bit-identical to
// math.Max per component in the same way as Min (+Inf wins over NaN).
func (v Vec3) Max(w Vec3) Vec3 {
	r := Vec3{max(v.X, w.X), max(v.Y, w.Y), max(v.Z, w.Z)}
	if r != r {
		return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
	}
	return r
}

// Lerp returns the linear interpolation between v and w at parameter t,
// with t=0 yielding v and t=1 yielding w.
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		v.X + (w.X-v.X)*t,
		v.Y + (w.Y-v.Y)*t,
		v.Z + (w.Z-v.Z)*t,
	}
}

// Component returns the axis-th component (0 = X, 1 = Y, 2 = Z).
func (v Vec3) Component(axis int) float64 {
	switch axis {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z)
}
