package testbed

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain holds every test of the package to what the metro tests assert
// for themselves: a testbed — chained engines under either admission
// layout, the fault fabric, DUs that are started and stopped — leaves no
// goroutine behind. After the run the count must come back to where it
// started; 2 s covers one still on its way out.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before && code == 0 {
		fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the run, %d before\n", n, before)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // diagnostics only
		code = 1
	}
	os.Exit(code)
}
