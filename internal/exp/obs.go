package exp

import "samrpart/internal/obs"

// obsRT is the observability runtime injected by cmd/experiments via
// SetObs. It stays nil by default, which keeps every study uninstrumented
// and bit-identical to the pre-observability behaviour.
var obsRT *obs.Runtime

// SetObs routes all subsequent studies' engine and SPMD runs through rt's
// metrics registry and span log (the tracing-overhead study keeps its own
// runtimes). Pass nil to turn observability back off.
// The studies run sequentially, so a plain package variable suffices.
func SetObs(rt *obs.Runtime) { obsRT = rt }
