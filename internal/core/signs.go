package core

import "cmfl/internal/tensor"

// Precomputed-sign fast path for the relevance check.
//
// Eq. 9 only consumes the signs of the feedback update, yet the feedback is
// shared by every client in a round: recomputing Sign(global[i]) per client
// is O(clients·dim) of redundant work. SignsInto folds the feedback to a
// compact []int8 once per round; SignAgreement then compares a local update
// against it. SignAgreement(local, signs) is exactly Relevance(local, v) for
// signs = SignsInto(nil, v) — a property test pins this.

// SignsInto writes the sign (-1, 0, +1) of every coordinate of v into dst,
// growing dst as needed, and returns the resized slice. Pass dst[:0] (or
// nil) to reuse a buffer across rounds.
//
//cmfl:hotpath
func SignsInto(dst []int8, v []float64) []int8 {
	dst = signBuf(dst, len(v))
	tensor.Signs(dst, v)
	return dst
}

// signBuf resizes a caller's sign buffer to n, reallocating only when it is
// too small.
func signBuf(dst []int8, n int) []int8 {
	if cap(dst) < n {
		//cmfl:lint-ignore hotpathalloc amortized grow: runs only when the caller-supplied buffer is too small
		dst = make([]int8, n)
	}
	return dst[:n]
}

// DiffSignsInto is the feedback prelude of a client that reconstructs the
// global update from two consecutive model broadcasts, in one sweep: it
// overwrites prev with cur − prev, writes that difference's signs into dst
// (grown like SignsInto's) and reports whether the difference is non-zero
// anywhere. It equals the subtraction loop, !AllZero(prev) and
// SignsInto(dst[:0], prev) run one after the other. prev and cur must have
// equal length.
//
//cmfl:hotpath
func DiffSignsInto(dst []int8, prev, cur []float64) ([]int8, bool) {
	dst = signBuf(dst, len(prev))
	return dst, tensor.SubSigns(dst, prev, cur)
}

// SignAgreement computes Eq. 9 against a precomputed feedback sign vector:
// the fraction of coordinates of local whose sign equals signs[i]. It equals
// Relevance(local, v) when signs was built from v.
//
//cmfl:hotpath
func SignAgreement(local []float64, signs []int8) (float64, error) {
	if len(local) != len(signs) {
		return 0, ErrLengthMismatch
	}
	if len(local) == 0 {
		return 0, nil
	}
	matches := tensor.SignMatches(local, signs)
	return float64(matches) / float64(len(local)), nil
}

// CheckSigns is Filter.Check on the precomputed-sign fast path. Empty signs
// mean "no feedback yet" (bootstrap: always upload). The second return is
// false when this filter cannot use the fast path (cosine ablation needs
// feedback magnitudes) and the caller must fall back to Check.
//
//cmfl:hotpath
func (f *Filter) CheckSigns(local []float64, feedbackSigns []int8, t int) (Decision, bool, error) {
	if f.UseCosine {
		return Decision{}, false, nil
	}
	if len(feedbackSigns) == 0 {
		return Decision{Upload: true, Metric: 1}, true, nil
	}
	rel, err := SignAgreement(local, feedbackSigns)
	if err != nil {
		return Decision{}, true, err
	}
	return Decision{Upload: rel >= f.threshold.At(t), Metric: rel}, true, nil
}

// CheckSigns is AdaptiveFilter.Check on the precomputed-sign fast path.
//
//cmfl:hotpath
func (f *AdaptiveFilter) CheckSigns(local []float64, feedbackSigns []int8, t int) (Decision, bool, error) {
	if len(feedbackSigns) == 0 {
		return Decision{Upload: true, Metric: 1}, true, nil
	}
	rel, err := SignAgreement(local, feedbackSigns)
	if err != nil {
		return Decision{}, true, err
	}
	return Decision{Upload: rel >= f.Threshold(), Metric: rel}, true, nil
}
