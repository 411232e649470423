package config

import "testing"

// listingOneStore builds the store corresponding to Listing 1 of the paper.
func listingOneStore() *Store {
	st := NewStore()
	add := func(key Key, val string) {
		st.Add(&Instance{Key: key, Value: val, Source: "setting.xml"})
	}
	add(K("CloudGroup::East1 Production[1]", "MonitorNodeHealth"), "True")
	add(K("CloudGroup::East1 Production[1]", "ControllerReplicas"), "5")
	add(K("CloudGroup::East1 Production[1]", "Cloud::East1Storage1[1]", "Tenant::A[1]", "MonitorNodeHealth"), "False")
	add(K("CloudGroup::SSD Cluster[2]", "MonitorNodeHealth"), "True")
	add(K("CloudGroup::SSD Cluster[2]", "ControllerReplicas"), "3")
	add(K("CloudGroup::SSD Cluster[2]", "Cloud::East1Compute1[1]", "Tenant::A[1]", "ControllerReplicas"), "5")
	return st
}

func TestDiscoverExactClass(t *testing.T) {
	st := listingOneStore()
	p := P("CloudGroup", "MonitorNodeHealth")
	got := st.Discover(p)
	if len(got) != 2 {
		t.Fatalf("Discover(%s) = %d instances, want 2", p, len(got))
	}
	for _, in := range got {
		if in.Key.ClassPath() != "CloudGroup.MonitorNodeHealth" {
			t.Errorf("unexpected class %s", in.Key.ClassPath())
		}
	}
}

func TestDiscoverLeafClassReference(t *testing.T) {
	st := listingOneStore()
	// One-segment pattern matches the parameter anywhere.
	got := st.Discover(P("MonitorNodeHealth"))
	if len(got) != 3 {
		t.Fatalf("leaf discover = %d, want 3", len(got))
	}
	got = st.Discover(P("ControllerReplicas"))
	if len(got) != 3 {
		t.Fatalf("leaf discover = %d, want 3", len(got))
	}
}

func TestDiscoverInstanceQualified(t *testing.T) {
	st := listingOneStore()
	got := st.Discover(P("CloudGroup::SSD Cluster", "ControllerReplicas"))
	if len(got) != 1 || got[0].Value != "3" {
		t.Fatalf("named instance discover = %v", got)
	}
	got = st.Discover(P("CloudGroup[1]", "ControllerReplicas"))
	if len(got) != 1 || got[0].Value != "5" {
		t.Fatalf("numbered instance discover = %v", got)
	}
}

func TestDiscoverWildcardScope(t *testing.T) {
	st := listingOneStore()
	got := st.Discover(P("*", "MonitorNodeHealth"))
	if len(got) != 2 {
		t.Fatalf("wildcard scope = %d, want 2 (top-level only)", len(got))
	}
	got = st.Discover(P("CloudGroup", "Cloud", "Tenant", "*"))
	if len(got) != 2 {
		t.Fatalf("wildcard leaf = %d, want 2", len(got))
	}
}

func TestDiscoverCache(t *testing.T) {
	st := listingOneStore()
	st.ResetStats()
	p := P("MonitorNodeHealth")
	first := st.Discover(p)
	second := st.Discover(p)
	if st.Stats.CacheHits() != 1 {
		t.Errorf("cache hits = %d, want 1", st.Stats.CacheHits())
	}
	if len(first) != len(second) {
		t.Errorf("cached result differs: %d vs %d", len(first), len(second))
	}
	// Adding invalidates.
	st.Add(&Instance{Key: K("X", "MonitorNodeHealth"), Value: "True"})
	third := st.Discover(p)
	if len(third) != len(first)+1 {
		t.Errorf("after Add, discover = %d, want %d", len(third), len(first)+1)
	}
}

func TestDiscoverResultIsCallerOwned(t *testing.T) {
	st := listingOneStore()
	p := P("ControllerReplicas")
	first := st.Discover(p)
	if len(first) != 3 {
		t.Fatalf("discover = %d instances, want 3", len(first))
	}
	// A caller may sort or grow its result; the cache must not see it.
	for i, j := 0, len(first)-1; i < j; i, j = i+1, j-1 {
		first[i], first[j] = first[j], first[i]
	}
	first = append(first, first[0])
	_ = first

	second := st.Discover(p)
	if len(second) != 3 {
		t.Fatalf("after caller mutation, discover = %d instances, want 3", len(second))
	}
	slow := st.DiscoverNaive(p)
	for i := range second {
		if second[i] != slow[i] {
			t.Fatalf("cached result corrupted at %d: %s vs %s", i, second[i], slow[i])
		}
	}
}

func TestDiscoverNaiveAgreesWithIndexed(t *testing.T) {
	st := listingOneStore()
	for _, pat := range []Pattern{
		P("MonitorNodeHealth"),
		P("CloudGroup", "MonitorNodeHealth"),
		P("CloudGroup", "Cloud", "Tenant", "ControllerReplicas"),
		P("*", "ControllerReplicas"),
		P("CloudGroup::SSD Cluster", "ControllerReplicas"),
		P("NoSuchKey"),
	} {
		fast := st.Discover(pat)
		slow := st.DiscoverNaive(pat)
		if len(fast) != len(slow) {
			t.Errorf("pattern %s: indexed=%d naive=%d", pat, len(fast), len(slow))
			continue
		}
		seen := make(map[*Instance]bool, len(slow))
		for _, in := range slow {
			seen[in] = true
		}
		for _, in := range fast {
			if !seen[in] {
				t.Errorf("pattern %s: indexed found %s missing from naive", pat, in)
			}
		}
	}
}

func TestDiscoverUnsubstitutedVars(t *testing.T) {
	st := listingOneStore()
	if got := st.Discover(P("CloudGroup::$g", "MonitorNodeHealth")); got != nil {
		t.Errorf("pattern with vars should discover nothing, got %d", len(got))
	}
}

func TestClassesAndClassInstances(t *testing.T) {
	st := listingOneStore()
	if n := len(st.Classes()); n != 4 {
		t.Errorf("classes = %d, want 4", n)
	}
	ins := st.ClassInstances("CloudGroup.ControllerReplicas")
	if len(ins) != 2 {
		t.Errorf("ClassInstances = %d, want 2", len(ins))
	}
	if st.Len() != 6 {
		t.Errorf("Len = %d, want 6", st.Len())
	}
}

func TestDiscoverDeterministicOrderWithWildcards(t *testing.T) {
	st := NewStore()
	st.Add(&Instance{Key: K("B", "Key"), Value: "1"})
	st.Add(&Instance{Key: K("A", "Key"), Value: "2"})
	st.Add(&Instance{Key: K("C", "Key"), Value: "3"})
	want := ""
	for i := 0; i < 5; i++ {
		st.InvalidateCache()
		got := ""
		for _, in := range st.Discover(P("*", "Key")) {
			got += in.Value
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("wildcard discovery order unstable: %q vs %q", got, want)
		}
	}
}
