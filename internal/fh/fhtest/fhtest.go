// Package fhtest holds what tests of frame producers share.
package fhtest

// CopyTo returns an output function that appends a copy of every frame it
// is handed to *dst. An output function only borrows its frame — the
// producer may reuse the buffer as soon as the function returns — so a
// test that inspects emitted frames afterwards collects them through this.
// The function is not safe for concurrent use; lock around it when the
// producer emits from several goroutines.
func CopyTo(dst *[][]byte) func(frame []byte) {
	return func(frame []byte) {
		*dst = append(*dst, append([]byte(nil), frame...))
	}
}
