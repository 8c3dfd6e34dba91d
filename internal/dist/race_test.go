//go:build race

package dist

// raceEnabled reports a build under the race detector, whose runtime
// drops a random share of sync.Pool puts and turns off the compiler's
// append(s, make([]T, n)...) optimisation: pooled cursors and KBest's
// sorted drains then allocate, so a leg cannot be held to its
// allocation budget there.
const raceEnabled = true
