//go:build race

package rpc

// raceEnabled reports whether the race detector is on. Its sync.Pool drops a
// share of what is put back, so allocation counts include refills a normal
// build does not make.
const raceEnabled = true
