package ingest

import "testing"

func TestSourceDigestFraming(t *testing.T) {
	base := SourceDigest("a.kv", "kv", "", []byte("x = 1\n"))
	if got := SourceDigest("a.kv", "kv", "", []byte("x = 1\n")); got != base {
		t.Error("digest not deterministic")
	}
	// Every field participates, and framing keeps boundary shifts apart.
	variants := []string{
		SourceDigest("b.kv", "kv", "", []byte("x = 1\n")),
		SourceDigest("a.kv", "ini", "", []byte("x = 1\n")),
		SourceDigest("a.kv", "kv", "App", []byte("x = 1\n")),
		SourceDigest("a.kv", "kv", "", []byte("x = 2\n")),
		SourceDigest("a.kvk", "v", "", []byte("x = 1\n")),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collided", i)
		}
		seen[v] = true
	}

	one := CombineDigests([]string{base})
	if one != base {
		t.Error("single-source combine should be the source digest itself")
	}
	two := CombineDigests([]string{base, variants[0]})
	if two == CombineDigests([]string{variants[0], base}) {
		t.Error("combined digest ignores source order")
	}
}
