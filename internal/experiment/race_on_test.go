//go:build race

package experiment

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// the items put back, so pooled paths allocate by design.
const raceEnabled = true
