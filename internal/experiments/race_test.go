//go:build race

package experiments

// raceEnabled: the whole registry takes about a minute under the race
// detector, so the golden paper file is checked in non-race builds only.
const raceEnabled = true
