//go:build race

package core

// raceEnabled reports that this test binary carries the race
// detector, which deliberately randomizes sync.Pool (Get may ignore
// the cache and call New), so a measurement that relies on the pooled
// scratch staying warm is meaningless there.
const raceEnabled = true
