//go:build race

package predict

// raceEnabled: under the race detector sync.Pool drops items at random,
// so steady-state allocation bounds do not hold.
const raceEnabled = true
