package cluster

import (
	"testing"
	"time"

	"dora/internal/clock"
)

// status finds name's entry in the membership snapshot, the table
// GET /v1/cluster and the gateway's health check read.
func status(ms *Membership, name string) (Status, bool) {
	for _, st := range ms.Snapshot() {
		if st.Name == name {
			return st, true
		}
	}
	return Status{}, false
}

func twoMembers() []Member {
	return []Member{{Name: "w0", URL: "http://a"}, {Name: "w1", URL: "http://b"}}
}

// TestMembershipEvictionAndRejoin drives the full state machine: a
// member survives threshold-1 failures, is evicted on the threshold'th
// consecutive one, and a single success rejoins it with the failure
// counter cleared.
func TestMembershipEvictionAndRejoin(t *testing.T) {
	var transitions []Transition
	ms := NewMembership(twoMembers(), 3, clock.NewManualAt(time.Unix(0, 0)), func(tr Transition) {
		transitions = append(transitions, tr)
	})

	for i := 0; i < 2; i++ {
		if dead := ms.ReportFailure("w0"); dead {
			t.Fatalf("w0 evicted after %d failures (threshold 3)", i+1)
		}
	}
	if st, _ := status(ms, "w0"); st.State != StateAlive || st.Fails != 2 {
		t.Fatalf("w0 = %s/%d fails, want alive/2", st.StateName, st.Fails)
	}
	// An intervening success resets the streak.
	ms.ReportAlive("w0", "fp-a")
	if st, _ := status(ms, "w0"); st.Fails != 0 || st.Fingerprint != "fp-a" {
		t.Fatalf("w0 after success = %d fails fp %q, want 0 fails fp-a", st.Fails, st.Fingerprint)
	}
	for i := 0; i < 3; i++ {
		ms.ReportFailure("w0")
	}
	if st, _ := status(ms, "w0"); st.State != StateDead {
		t.Fatalf("w0 after 3 consecutive failures = %s, want dead", st.StateName)
	}
	if live := ms.Live(); len(live) != 1 || live[0] != "w1" {
		t.Fatalf("Live = %v, want [w1]", live)
	}
	ms.ReportAlive("w0", "")
	if st, _ := status(ms, "w0"); st.State != StateAlive || st.Fails != 0 {
		t.Fatalf("w0 after rejoin = %s/%d, want alive/0", st.StateName, st.Fails)
	}
	want := []Transition{
		{Name: "w0", From: StateAlive, To: StateDead},
		{Name: "w0", From: StateDead, To: StateAlive},
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, transitions[i], want[i])
		}
	}
}

// TestMembershipDraining: a draining report leaves placement without
// accumulating failures, and never flaps to dead however long the
// drain lasts.
func TestMembershipDraining(t *testing.T) {
	ms := NewMembership(twoMembers(), 2, nil, nil)
	for i := 0; i < 5; i++ {
		ms.ReportDraining("w1", "fp")
	}
	st, _ := status(ms, "w1")
	if st.State != StateDraining || st.Fails != 0 {
		t.Fatalf("w1 = %s/%d fails, want draining/0", st.StateName, st.Fails)
	}
	if live := ms.Live(); len(live) != 1 || live[0] != "w0" {
		t.Fatalf("Live = %v, want [w0]", live)
	}
	ms.ReportAlive("w1", "fp")
	if st, _ := status(ms, "w1"); st.State != StateAlive {
		t.Fatalf("w1 after drain ends = %s, want alive", st.StateName)
	}
}

// TestMembershipRoute: the gateway's placement, Rank over the live
// set, follows membership and is empty once no member is live.
func TestMembershipRoute(t *testing.T) {
	ms := NewMembership(twoMembers(), 1, nil, nil)
	if rank := Rank("some-key", ms.Live()); len(rank) != 2 {
		t.Fatalf("rank with both live = %v, want both members", rank)
	}
	ms.ReportFailure("w0")
	if rank := Rank("some-key", ms.Live()); len(rank) != 1 || rank[0] != "w1" {
		t.Fatalf("rank with w0 evicted = %v, want [w1]", rank)
	}
	ms.ReportDraining("w1", "")
	if rank := Rank("some-key", ms.Live()); len(rank) != 0 {
		t.Fatalf("rank with none live = %v, want empty", rank)
	}
}

// TestMembershipCallbackReentrancy: the OnChange callback runs outside
// the lock, so it may query and even mutate the membership without
// deadlocking.
func TestMembershipCallbackReentrancy(t *testing.T) {
	var ms *Membership
	ms = NewMembership(twoMembers(), 1, nil, func(tr Transition) {
		ms.Live()
		ms.Snapshot()
		if tr.To == StateDead && tr.Name == "w0" {
			ms.ReportAlive("w0", "") // immediate re-entrant rejoin
		}
	})
	ms.ReportFailure("w0")
	if st, _ := status(ms, "w0"); st.State != StateAlive {
		t.Fatalf("w0 = %s, want alive (callback rejoined it)", st.StateName)
	}
}

// TestMembershipConstruction: duplicate names collapse (first URL
// wins), empty names default to the URL, unknown members are inert.
func TestMembershipConstruction(t *testing.T) {
	ms := NewMembership([]Member{
		{Name: "w0", URL: "http://first"},
		{Name: "w0", URL: "http://dup"},
		{URL: "http://nameless"},
	}, 3, nil, nil)
	if names := ms.Names(); len(names) != 2 || names[0] != "http://nameless" || names[1] != "w0" {
		t.Fatalf("Names = %v", names)
	}
	if url, _ := ms.URL("w0"); url != "http://first" {
		t.Fatalf("dup name URL = %q, want the first", url)
	}
	if ms.ReportFailure("ghost") {
		t.Fatal("unknown member reported dead")
	}
	if _, ok := status(ms, "ghost"); ok {
		t.Fatal("unknown member present")
	}
	snap := ms.Snapshot()
	if len(snap) != 2 || snap[0].StateName != "alive" {
		t.Fatalf("Snapshot = %+v", snap)
	}
}
