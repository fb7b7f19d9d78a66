// Package floatsum is a lint fixture for the order-sensitive float
// accumulation prover.
package floatsum

var sink float64

func plainSums(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x // want "float accumulation sum depends on iteration order"
	}
	var spelled float64
	for _, x := range xs {
		spelled = spelled + x // want "float accumulation spelled depends on iteration order"
	}
	var sub float64
	for _, x := range xs {
		sub -= x // want "float accumulation sub depends on iteration order"
	}
	return sum + spelled + sub
}

// nestedHazard: declared in the outer loop's body, folded across the inner
// loop — invariant for the inner drain, so still a reduction.
func nestedHazard(rounds [][]float64) {
	for _, xs := range rounds {
		var roundSum float64
		for _, x := range xs {
			roundSum += x // want "float accumulation roundSum depends on iteration order"
		}
		sink = roundSum
	}
}

// elementWise addresses a distinct slot each iteration: not a reduction.
func elementWise(dst, src []float64) {
	for j := range dst {
		dst[j] += src[j]
	}
}

// bodyLocal folds only into per-iteration state of the innermost loop.
func bodyLocal(xs []float64) {
	for _, x := range xs {
		y := x * 2
		y += 1
		sink = y
	}
}

// intSums: integer addition is associative; order cannot matter.
func intSums(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// pinnedSlice: slice drains are provably deterministic, the pin is honored.
func pinnedSlice(xs []float64) float64 {
	var sum float64
	//cmfl:order-pinned the slice order is the algorithm's canonical fold order
	for _, x := range xs {
		sum += x
	}
	return sum
}

// pinnedStmt: the marker may also sit directly above the accumulation.
func pinnedStmt(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		//cmfl:order-pinned canonical fold order, pinned at the statement
		sum += x
	}
	return sum
}

// pinnedMap: no pin can rescue a map drain — iteration order is randomized.
func pinnedMap(m map[string]float64) float64 {
	var sum float64
	//cmfl:order-pinned maps are fine, surely
	for _, v := range m {
		sum += v // want "ranges over a map"
	}
	return sum
}

// pinnedDrain: a channel-receive loop folds in arrival order; pin refused.
func pinnedDrain(ch chan float64) float64 {
	var sum float64
	for {
		v, ok := <-ch
		if !ok {
			break
		}
		//cmfl:order-pinned arrival order is fine, surely
		sum += v // want "receives from a channel"
	}
	return sum
}

// unpinnedChanRange: the generic finding fires without any marker too.
func unpinnedChanRange(ch chan float64) float64 {
	var sum float64
	for v := range ch {
		sum += v // want "float accumulation sum depends on iteration order"
	}
	return sum
}

// stalePin: the marker sits above a fold outside any loop — there is no
// order to pin, so the marker outlived its reduction.
func stalePin(dst, src []float64) {
	//cmfl:order-pinned nothing here folds across iterations // want "pins no order-sensitive reduction"
	dst[0] += src[0]
}
