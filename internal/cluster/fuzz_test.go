package cluster

import (
	"slices"
	"strings"
	"testing"
)

// FuzzGatewayRoute throws arbitrary routing keys and membership
// shapes (names from a comma-split blob, liveness from a bitmask) at
// the placement the gateway runs for every load, Rank(key, live), and
// holds its contract: never panic, return nothing exactly when nothing
// is live, return a permutation of the live set, and put the live
// set's rendezvous winner (Pick) first.
func FuzzGatewayRoute(f *testing.F) {
	f.Add("gate-route|fp|Alipay|7", []byte("w0,w1,w2"), uint64(0))
	f.Add("", []byte(""), uint64(0))
	f.Add("campaign-cell", []byte("w0,w0,w0"), uint64(1))
	f.Add("k", []byte("a,b,c,d,e,f,g,h"), uint64(0xA5))
	f.Add("seed-9000003", []byte(",,"), uint64(^uint64(0)))
	f.Add("unicode-\xff\xfe", []byte("w\x00,w\xff"), uint64(2))

	f.Fuzz(func(t *testing.T, key string, memberBlob []byte, failMask uint64) {
		parts := strings.Split(string(memberBlob), ",")
		if len(parts) > 64 {
			parts = parts[:64]
		}
		members := make([]Member, 0, len(parts))
		for _, p := range parts {
			members = append(members, Member{Name: p, URL: "http://" + p})
		}
		if len(members) == 0 {
			return
		}
		ms := NewMembership(members, 1, nil, nil)

		// Knock members out per the mask: even bits evict, odd drain.
		for i, name := range ms.Names() {
			if i >= 64 {
				break
			}
			if failMask&(1<<uint(i)) == 0 {
				continue
			}
			if i%2 == 0 {
				ms.ReportFailure(name)
			} else {
				ms.ReportDraining(name, "")
			}
		}

		live := ms.Live()
		rank := Rank(key, live)
		if (len(rank) == 0) != (len(live) == 0) {
			t.Fatalf("Rank(%q, %v) = %v: empty exactly when nothing is live", key, live, rank)
		}
		sortedRank, sortedLive := slices.Clone(rank), slices.Clone(live)
		slices.Sort(sortedRank)
		slices.Sort(sortedLive)
		if !slices.Equal(sortedRank, sortedLive) {
			t.Fatalf("Rank(%q, %v) = %v, not a permutation of the live set", key, live, rank)
		}
		if len(rank) == 0 {
			return
		}
		if want, ok := Pick(key, live); !ok || rank[0] != want {
			t.Fatalf("Rank(%q, %v) = %v, head must be the rendezvous winner %q", key, live, rank, want)
		}
	})
}
