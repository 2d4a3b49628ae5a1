// Package dvfs is a lint fixture for the //doralint:allow directive
// itself: well-formed suppressions (inline and line-above) silence a
// finding, while a directive with an unknown rule, a missing reason,
// no rule at all, or nothing to suppress is reported under the meta
// rule "allow" — and suppresses nothing.
package dvfs

import "time"

// suppressed exercises both legal placements; neither time.Now may be
// reported.
func suppressed() (time.Time, time.Time) {
	now := time.Now() //doralint:allow detflow fixture exercises inline suppression
	//doralint:allow detflow fixture exercises line-above suppression
	later := time.Now()
	return now, later
}

// malformed directives are themselves findings, and the diagnostics
// they failed to suppress survive.
func malformed() time.Duration {
	//doralint:allow wallclock not a real rule // want `allow: unknown rule "wallclock" in //doralint:allow`
	t0 := time.Now() // want `detflow: call to time.Now reads a nondeterministic input inside simulation package "dvfs"`
	//doralint:allow detflow // want `allow: suppression of "detflow" needs a reason`
	t1 := time.Now() // want `detflow: call to time.Now reads a nondeterministic input inside simulation package "dvfs"`
	//doralint:allow // want `allow: //doralint:allow needs a rule name and a reason`
	//doralint:allow determinism folded into detflow // want `allow: unknown rule "determinism" in //doralint:allow`
	t2 := time.Now() // want `detflow: call to time.Now reads a nondeterministic input inside simulation package "dvfs"`
	return t2.Sub(t1) + t1.Sub(t0)
}

// A well-formed suppression with no matching finding nearby is stale.
//
//doralint:allow detflow nothing here reads the clock // want `allow: unused suppression of "detflow"`
func clean() int { return 42 }
