package vtype

import (
	"math"
	"strings"
	"testing"
)

// vtypeSeeds are the corner cases of each grammar: float spellings
// strconv accepts and ParseFloat refuses, zones, leading zeros, mapped
// addresses, over-long versions and the letter cases of units, booleans
// and URL schemes.
var vtypeSeeds = strings.Fields(`1e5 .5 5. +1 -0x1F 0X1f 1_000 Inf nan 1e400 1e
	::ffff:1.2.3.4 fe80::1%eth0 fe80::1%1 01.2.3.4 1.2.3 v1.2.3.4.5 512MB 4Gb 30SEC
	a.b -a.b ON Yes HTTP://x` +
	// strings.ToLower maps the Kelvin sign onto k and the dotted capital
	// I onto i, so the first three are a size, a URL and a duration; the
	// last four place underscores, which a float admits between digits.
	" 1\u212aB F\u0130LE://x 5m\u0130n \u0130nf 1_0.0_1e1_0 1__0 _1 1_")

// FuzzVtype holds the allocation-free parsers to the strconv- and
// net-based originals in oracle_test.go: the same detected type, the same
// membership in every type, the same parse results, and the same order
// and typed flag from CompareValues and Classified.Compare.
func FuzzVtype(f *testing.F) {
	seeds := append(append([]string(nil), vtypeSeeds...), classifySamples...)
	for i, a := range seeds {
		f.Add(a, seeds[(i*7+3)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkOneAgainstOracle(t, a)
		checkOneAgainstOracle(t, b)
		if IPInCIDR(a, b) != oracleIPInCIDR(a, b) {
			t.Errorf("IPInCIDR(%q, %q) differs from the oracle", a, b)
		}
		gc, gt := CompareValues(a, b)
		wc, wt := oracleCompareValues(a, b)
		if sign(gc) != sign(wc) || gt != wt {
			t.Errorf("CompareValues(%q, %q) = (%d, %v), oracle (%d, %v)", a, b, gc, gt, wc, wt)
		}
		cb, ocb := Classify(b), oracleClassify(b)
		gc, gt = cb.Compare(a)
		wc, wt = ocb.Compare(a)
		if sign(gc) != sign(wc) || gt != wt {
			t.Errorf("Classify(%q).Compare(%q) = (%d, %v), oracle (%d, %v)", b, a, gc, gt, wc, wt)
		}
		if cb.Stringish != ocb.Stringish {
			t.Errorf("Classify(%q).Stringish = %v, oracle %v", b, cb.Stringish, ocb.Stringish)
		}
	})
}

func checkOneAgainstOracle(t *testing.T, s string) {
	t.Helper()
	if got, want := Detect(s), oracleDetect(s); got != want {
		t.Errorf("Detect(%q) = %v, oracle %v", s, got, want)
	}
	for k := KindInvalid; k <= KindList; k++ {
		for _, typ := range []Type{Scalar(k), ListOf(k)} {
			if got, want := Conforms(s, typ), oracleConforms(s, typ); got != want {
				t.Errorf("Conforms(%q, %v) = %v, oracle %v", s, typ, got, want)
			}
		}
	}
	bools := []struct {
		name      string
		got, want func(string) bool
	}{
		{"IsBool", IsBool, oracleIsBool},
		{"IsInt", IsInt, oracleIsInt},
		{"IsFloat", IsFloat, oracleIsFloat},
		{"IsPort", IsPort, oracleIsPort},
		{"IsIP", IsIP, oracleIsIP},
		{"IsIPRange", IsIPRange, oracleIsIPRange},
		{"IsCIDR", IsCIDR, oracleIsCIDR},
		{"IsMAC", IsMAC, oracleIsMAC},
		{"IsGUID", IsGUID, oracleIsGUID},
		{"IsURL", IsURL, oracleIsURL},
		{"IsPathLike", IsPathLike, oracleIsPathLike},
		{"IsHostname", IsHostname, oracleIsHostname},
		{"IsEmail", IsEmail, oracleIsEmail},
		{"IsVersion", IsVersion, oracleIsVersion},
		{"IsSize", IsSize, oracleIsSize},
		{"IsDuration", IsDuration, oracleIsDuration},
	}
	for _, c := range bools {
		if got, want := c.got(s), c.want(s); got != want {
			t.Errorf("%s(%q) = %v, oracle %v", c.name, s, got, want)
		}
	}
	b, bok := ParseBool(s)
	ob, obok := oracleParseBool(s)
	same(t, "ParseBool", s, b, bok, ob, obok)
	n, nok := ParseInt(s)
	on, onok := oracleParseInt(s)
	same(t, "ParseInt", s, n, nok, on, onok)
	x, xok := ParseFloat(s)
	ox, oxok := oracleParseFloat(s)
	same(t, "ParseFloat", s, math.Float64bits(x), xok, math.Float64bits(ox), oxok)
	n, nok = ParseSize(s)
	on, onok = oracleParseSize(s)
	same(t, "ParseSize", s, n, nok, on, onok)
	x, xok = ParseDuration(s)
	ox, oxok = oracleParseDuration(s)
	same(t, "ParseDuration", s, math.Float64bits(x), xok, math.Float64bits(ox), oxok)
	ip, ipok := ParseIP(s)
	oip, oipok := oracleParseIP(s)
	same(t, "ParseIP", s, string(ip), ipok, string(oip), oipok)
	lo, hi, rok := ParseIPRange(s)
	olo, ohi, orok := oracleParseIPRange(s)
	same(t, "ParseIPRange", s, string(lo)+"-"+string(hi), rok, string(olo)+"-"+string(ohi), orok)
}

// same reports a parse result, compared by value (net.IP as its bytes,
// floats as their bits), that differs from the oracle's.
func same[T comparable](t *testing.T, name, s string, got T, gok bool, want T, wok bool) {
	t.Helper()
	if got != want || gok != wok {
		t.Errorf("%s(%q) = %v,%v, oracle %v,%v", name, s, got, gok, want, wok)
	}
}
