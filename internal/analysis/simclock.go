package analysis

import (
	"go/ast"
	"strings"
)

// SimClock keeps the wall clock out of the simulated datapath. Everything
// under internal/ runs on internal/sim's virtual clock so that a seeded
// run — including the fault injector's schedules and the trace pipeline's
// stamps — replays bit-identically; one stray time.Now() quietly breaks
// that. The analyzer forbids wall-clock reads and wall-clock-armed timers
// in internal/ packages outside internal/sim itself. Code that must time
// goroutines running on wall time (the shard watchdog) reads sim.Monotonic;
// anything else needs a //ranvet:allowfile simclock <reason> directive.
var SimClock = &Analyzer{
	Name:  "simclock",
	Alias: "simclock",
	Doc:   "forbids wall-clock reads (time.Now etc.) in internal/ outside sim",
	Run:   runSimClock,
}

// simClockBanned are the time package functions that observe or schedule
// against the wall clock. Pure arithmetic (time.Duration, time.Unix) and
// explicit construction stay legal.
var simClockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Sleep":     true,
}

// simClockApplies reports whether the package is in scope: an internal/
// package of this module, excluding the virtual clock itself.
func simClockApplies(path string) bool {
	i := strings.Index(path, "/internal/")
	if i < 0 {
		return false
	}
	rest := path[i+len("/internal/"):]
	return rest != "sim" && !strings.HasPrefix(rest, "sim/")
}

func runSimClock(prog *Program, report Reporter) {
	for _, pkg := range prog.Packages {
		if !simClockApplies(pkg.Path) {
			continue
		}
		pkg.inspect(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := calleeFunc(pkg.Info, sel)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !simClockBanned[fn.Name()] {
				return true
			}
			report(pkg, sel.Pos(),
				"time.%s reads the wall clock; internal/ packages must use the sim clock so seeded runs replay bit-identically",
				fn.Name())
			return true
		})
	}
}
