// Package deterministicorder is a lint fixture for the map-order rule.
package deterministicorder

//cmfl:deterministic
func aggregate(ws map[int][]float64, acc []float64) {
	for _, w := range ws { // want "map iteration in deterministic function aggregate"
		for i := range acc {
			acc[i] += w[i]
		}
	}
}

//cmfl:deterministic
func orderedIsFine(ws [][]float64, acc []float64) {
	for _, w := range ws { // ok: slice iteration is ordered
		for i := range acc {
			acc[i] += w[i]
		}
	}
}

// unannotated may range over a map: its order is not part of any
// reproducibility contract.
func unannotated(ws map[int]float64) (sum float64) {
	for _, w := range ws {
		sum += w
	}
	return sum
}
