// Package tensor implements the dense float64 linear algebra used by the
// neural-network and multi-task-learning substrates.
//
// A Tensor is a flat []float64 with a shape. The package favours explicit
// loops over cleverness: every experiment in this repository is CPU-bound on
// small models, and predictable, allocation-conscious code is easier to
// verify against the paper's equations.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
//
// The zero value is an empty tensor. Data is owned by the Tensor; use Clone
// to copy at boundaries.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zeroed tensor with the given shape. It keeps a copy of
// shape, so a caller's variadic shape stays on the caller's stack.
func New(shape ...int) *Tensor {
	own := append([]int(nil), shape...)
	n := 1
	for _, d := range own {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, own))
		}
		n *= d
	}
	return &Tensor{Shape: own, Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
// It panics if the element count does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	own := append([]int(nil), shape...)
	n := 1
	for _, d := range own {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: %d elements cannot fill shape %v", len(data), own))
	}
	return &Tensor{Shape: own, Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{
		Shape: append([]int(nil), t.Shape...),
		Data:  append([]float64(nil), t.Data...),
	}
}

// Reshape returns a view with a new shape sharing the same backing data.
// It panics if the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-index (2-D fast path).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Shape[1]+j] }

// Set assigns the element at the given 2-D index.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Shape[1]+j] = v }

// Zero resets all elements to 0 in place.
//
//cmfl:hotpath
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace computes t += other elementwise. Shapes must have equal length.
//
//cmfl:hotpath
func (t *Tensor) AddInPlace(other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: AddInPlace length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	for i, v := range other.Data {
		t.Data[i] += v
	}
}

// AxpyInPlace computes t += alpha*other elementwise.
//
//cmfl:hotpath
func (t *Tensor) AxpyInPlace(alpha float64, other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: AxpyInPlace length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	Axpy(alpha, other.Data, t.Data)
}

// Scale multiplies every element by alpha in place.
//
//cmfl:hotpath
func (t *Tensor) Scale(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// MatMul returns a(m×k) · b(k×n) as a new m×n tensor. Hot paths should use
// MatMulInto with a reused destination instead.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	return MatMulInto(New(a.Shape[0], b.Shape[1]), a, b)
}

// MatMulTransB returns a(m×k) · bᵀ where b is n×k. Hot paths should use
// MatMulTransBInto with a reused destination instead.
func MatMulTransB(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	return MatMulTransBInto(New(a.Shape[0], b.Shape[0]), a, b)
}

// MatMulTransA returns aᵀ · b where a is k×m and b is k×n. Hot paths should
// use MatMulTransAInto with a reused destination instead.
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransA requires 2-D operands")
	}
	return MatMulTransAInto(New(a.Shape[1], b.Shape[1]), a, b)
}

// Transpose returns the transpose of a 2-D tensor as a new tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: Transpose requires a 2-D operand")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// Norm2 returns the Euclidean norm of v.
//
//cmfl:hotpath
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b.
//
//cmfl:hotpath
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Sub returns a-b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// ScaleVec multiplies v by alpha in place.
//
//cmfl:hotpath
func ScaleVec(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}
