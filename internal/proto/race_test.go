//go:build race

package proto

func init() { raceEnabled = true }
