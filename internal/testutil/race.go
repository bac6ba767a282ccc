//go:build race

package testutil

// RaceEnabled reports whether the binary was built with the race detector.
// The two allocation tests of internal/server (served routes, query
// options) skip their bounds under race builds: the detector allocates
// inside net/http and the runtime, which is measurement noise, not a
// regression.
const RaceEnabled = true
