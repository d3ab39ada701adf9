//go:build !race

package rack

const raceEnabled = false
