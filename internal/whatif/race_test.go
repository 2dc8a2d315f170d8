//go:build race

package whatif

// raceEnabled says the tests run under the race detector, which slows a
// sweep more than tenfold.
const raceEnabled = true
