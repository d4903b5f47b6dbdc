package sched

// Keep-going variants of the grid primitives: run EVERY cell regardless of
// failures and report errors per index instead of cancelling the sweep.
// These back the experiment harness's -keep-going mode, where one broken
// (workload × policy) cell should annotate its table row rather than throw
// away hours of completed neighbours.

// MapAll is Map without cancellation: every index runs, results land in
// index order, and the second slice carries each cell's error (nil for
// succeeded cells, whose results are valid).
func MapAll[T any](n int, fn func(i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, func(i int) error {
		out[i], errs[i] = protectVal(i, fn)
		return nil
	})
	return out, errs
}

// StreamAll is Stream without cancellation: every cell runs, and emit is
// called for every index in strictly increasing order with the cell's
// result and error. Only an emit error (caller-side) stops the stream.
func StreamAll[T any](n int, fn func(i int) (T, error), emit func(i int, v T, jobErr error) error) error {
	type cell struct {
		v   T
		err error
	}
	return Stream(n,
		func(i int) (cell, error) {
			v, err := protectVal(i, fn)
			return cell{v, err}, nil
		},
		func(i int, c cell) error { return emit(i, c.v, c.err) })
}
