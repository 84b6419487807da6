//go:build race

package agent

// raceEnabled: the race detector's instrumentation changes what escapes
// and allocates, so steady-state allocation bounds are skipped under it.
const raceEnabled = true
