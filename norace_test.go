//go:build !race

package wdsparql

const raceEnabled = false
