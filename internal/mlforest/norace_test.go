//go:build !race

package mlforest

const raceEnabled = false
