package core

import (
	"reflect"
	"testing"
)

// configSurface is the number of independently settable values under
// Config: its leaf fields, counting those of the three policy structs.
// Each one multiplies the configurations tests and benchmarks must cover.
const configSurface = 15

// settable counts the leaf fields of a struct type, recursing into fields
// that are themselves structs.
func settable(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		if ft := t.Field(i).Type; ft.Kind() == reflect.Struct {
			n += settable(ft)
		} else {
			n++
		}
	}
	return n
}

// TestConfigSurface pins the size of the configuration surface; `make loc`
// reports the figure it logs.
func TestConfigSurface(t *testing.T) {
	got := settable(reflect.TypeOf(Config{}))
	t.Logf("core.Config settable values: %d", got)
	if got != configSurface {
		t.Fatalf("core.Config has %d settable values, pinned at %d. A new value needs two callers "+
			"that exist today outside tests and examples and need different settings; with one value "+
			"in use make it a constant, and if the code can work it out from its inputs, do that. "+
			"Removing one: lower the pin.", got, configSurface)
	}
}
