package main

import "syscall"

// offHeap returns n zeroed bytes mapped outside the Go heap. The corpus and
// the receive pool live there: tens of megabytes of harness buffers on the
// heap would set the garbage collector's pace (the heap goal is a multiple of
// the live heap), and with it how much memory the engine's own per-frame
// garbage streams through between collections — on this box that moved
// rushare_mux by 10 % with the host's cache pressure. Off the heap, the
// collector sees only what the engine and the apps keep alive, as it would in
// a middlebox process.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("ranbench: mapping " + err.Error())
	}
	return b
}

// release unmaps what offHeap returned. Nothing may point into it any more.
func release(b []byte) {
	if cap(b) > 0 {
		_ = syscall.Munmap(b[:cap(b)]) // the mapping is ours and whole; a failure would only leak it until exit
	}
}
