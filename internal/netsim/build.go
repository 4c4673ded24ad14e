package netsim

import (
	"fmt"

	"repro/internal/bits"
)

// Build constructs the machine a network name and node count describe:
// a side×side mesh ("mesh", a torus when wrap is set), a log2(n)-cube
// ("hypercube") or a side×side 2D hypermesh ("hypermesh"). n must be a
// power of two >= 4, and a square for mesh and hypermesh. fftd's
// /v1/simulate, fftbench and cmd/netsim build their machines here, so a
// network, size and wrap name the same machine everywhere.
func Build[T any](network string, n int, wrap bool, cfg Config) (Machine[T], error) {
	if !bits.IsPow2(n) || n < 4 {
		return nil, fmt.Errorf("n = %d must be a power of two >= 4", n)
	}
	switch network {
	case "mesh", "hypermesh":
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return nil, fmt.Errorf("%s needs a square n, got %d", network, n)
		}
		if network == "mesh" {
			return NewMesh[T](side, wrap, cfg)
		}
		return NewHypermesh[T](side, 2, cfg)
	case "hypercube":
		return NewHypercube[T](bits.Log2(n), cfg)
	default:
		return nil, fmt.Errorf("unknown network %q", network)
	}
}
