//go:build race

package core

// raceEnabled reports a build under the race detector, whose
// instrumentation turns off the compiler's append(s, make([]T, n)...)
// optimisation: KBest.AppendSorted then allocates its temporary, so a kNN
// query cannot be held to zero allocations there.
const raceEnabled = true
