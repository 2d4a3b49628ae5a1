// detflow fixtures: a wall-clock read laundered through a package
// outside the simulation set is caught at the boundary call, while a
// seeded-generator chain through the same package stays clean.
package sim

import "fixture/helper"

// stamped launders time.Now through helper, two call hops outside the
// simulation set — the hole a package-set ban cannot see and the taint
// exists to close.
func stamped() int64 {
	return helper.Stamp() // want `detflow: call to helper\.Stamp reaches a nondeterministic input \(helper\.Stamp → helper\.now → time\.Now\) from simulation package "sim"`
}

// t0 launders the same read through a package-level initializer, which
// no function owns: the call is attributed to the package's
// initializer node, so the boundary finding still fires.
var t0 = helper.Stamp() // want `detflow: call to helper\.Stamp reaches a nondeterministic input \(helper\.Stamp → helper\.now → time\.Now\) from simulation package "sim"`

// seeded draws from a seeded generator built outside the set — no
// finding: rand.New/rand.NewSource are not sources and *rand.Rand
// methods are deterministic.
func seeded() int64 {
	return helper.NewRand(42).Int63()
}
