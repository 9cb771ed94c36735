// Package hotclosurepkg exercises closure inference: the allocation
// checks apply to everything a //voltvet:hotpath root reaches, with no
// per-function directive. An unannotated helper the root calls is
// checked (VV-HOT001), an interface seam is reported at the call site
// (VV-HOT006) and the implementation class-hierarchy analysis drags in
// is checked too (VV-HOT002), a tail call is followed (VV-HOT004), and a
// panic-argument call stays cold. The old "root" operand is malformed
// (VV-IGN001) and marks nothing.
package hotclosurepkg

import "fmt"

// lastLabel gives the fmt calls below somewhere to land.
var lastLabel string

// Sink consumes an interface so boxing call sites are observable.
func Sink(v any) {}

// sink is the dispatch seam Step crosses on every iteration.
type sink interface {
	Put(x uint64)
}

// Accum is the only in-module implementation of sink.
type Accum struct {
	name, last string
	total      uint64
}

// Put is reached only through the seam; the closure still covers it.
func (a *Accum) Put(x uint64) {
	a.total += x
	a.last = "put " + a.name // want "VV-HOT002"
}

// Step is the closure root.
//
//voltvet:hotpath
func Step(s sink, n uint64) uint64 {
	if n == 0 {
		panic(describe(n)) // cold: describe is only reached as a panic argument
	}
	v := mix(n)
	s.Put(v) // want "VV-HOT006"
	return scale(v)
}

// mix carries no directive, yet the root reaches it, so it is checked.
func mix(n uint64) uint64 {
	lastLabel = fmt.Sprint(n) // want "VV-HOT001"
	return n*6364136223846793005 + 1442695040888963407
}

// scale is a tail call: return operands are hot for reachability, so
// the closure follows it.
func scale(n uint64) uint64 {
	Sink(n) // want "VV-HOT004"
	return n >> 3
}

// describe only runs while dying; it must stay out of the closure even
// though it allocates freely.
func describe(n uint64) string {
	s := fmt.Sprint(n)
	return "step(" + s + ")"
}

// Legacy uses the retired "root" operand. The malformed directive marks
// nothing, so Legacy's fmt call goes unchecked.
//
//voltvet:hotpath root // want "VV-IGN001"
func Legacy(n uint64) {
	lastLabel = fmt.Sprint(n)
}
