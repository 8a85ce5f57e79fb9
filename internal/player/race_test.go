//go:build race

package player_test

func init() { raceEnabled = true }
