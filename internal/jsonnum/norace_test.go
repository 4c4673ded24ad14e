//go:build !race

package jsonnum

const raceEnabled = false
