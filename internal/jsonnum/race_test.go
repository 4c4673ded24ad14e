//go:build race

package jsonnum

const raceEnabled = true
