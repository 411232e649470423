package vtype

import (
	"testing"
)

func TestDetectScalars(t *testing.T) {
	cases := []struct {
		in   string
		want Type
	}{
		{"true", Scalar(KindBool)},
		{"False", Scalar(KindBool)},
		{"yes", Scalar(KindBool)},
		{"42", Scalar(KindPort)},
		{"0", Scalar(KindInt)},
		{"-7", Scalar(KindInt)},
		{"70000", Scalar(KindInt)},
		{"0x1F", Scalar(KindInt)},
		{"3.25", Scalar(KindFloat)},
		{"-0.5", Scalar(KindFloat)},
		{"10.0.0.1", Scalar(KindIP)},
		{"fe80::1", Scalar(KindIP)},
		{"10.0.0.1-10.0.0.9", Scalar(KindIPRange)},
		{"10.0.0.0/24", Scalar(KindCIDR)},
		{"00:1f:2e:3d:4c:5b", Scalar(KindMAC)},
		{"3F2504E0-4F89-11D3-9A0C-0305E82C3301", Scalar(KindGUID)},
		{"{3F2504E0-4F89-11D3-9A0C-0305E82C3301}", Scalar(KindGUID)},
		{"https://example.com/api", Scalar(KindURL)},
		{`\\share\OS\v2`, Scalar(KindPath)},
		{`C:\Windows\system32`, Scalar(KindPath)},
		{"/etc/hosts", Scalar(KindPath)},
		{"cache01.prod.example.com", Scalar(KindHostname)},
		{"ops@example.com", Scalar(KindEmail)},
		{"2.0.14", Scalar(KindVersion)},
		{"512MB", Scalar(KindSize)},
		{"30s", Scalar(KindDuration)},
		{"plain text value", TString},
		{"", TString},
	}
	for _, c := range cases {
		if got := Detect(c.in); got != c.want {
			t.Errorf("Detect(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDetectLists(t *testing.T) {
	cases := []struct {
		in   string
		want Type
	}{
		{"10.0.0.1,10.0.0.2", ListOf(KindIP)},
		{"1;2;3", ListOf(KindPort)},
		{"1,2,700000", ListOf(KindInt)},
		{"10.0.0.1-10.0.0.5;10.1.0.1-10.1.0.9", ListOf(KindIPRange)},
		{"a,b,c", TString}, // strings don't list-ify
		{"1,2,", TString},  // trailing empty element
		{"1, ,3", TString}, // blank element
		{"1.5, 2.5", ListOf(KindFloat)},
	}
	for _, c := range cases {
		if got := Detect(c.in); got != c.want {
			t.Errorf("Detect(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestConforms(t *testing.T) {
	cases := []struct {
		val  string
		typ  Type
		want bool
	}{
		{"5", Scalar(KindInt), true},
		{"5", Scalar(KindFloat), true}, // int <= float
		{"5.5", Scalar(KindInt), false},
		{"true", Scalar(KindBool), true},
		{"TRUE", Scalar(KindBool), true},
		{"1", Scalar(KindBool), false},
		{"10.0.0.1", Scalar(KindIP), true},
		{"10.0.0.1", Scalar(KindHostname), false}, // all-numeric labels
		{"999999", Scalar(KindPort), false},
		{"443", Scalar(KindPort), true},
		{"1,2,3", ListOf(KindInt), true},
		{"7", ListOf(KindInt), true}, // scalar is a singleton list
		{"1,x,3", ListOf(KindInt), false},
		{"anything at all", TString, true},
		{"", TString, true},
	}
	for _, c := range cases {
		if got := Conforms(c.val, c.typ); got != c.want {
			t.Errorf("Conforms(%q, %v) = %v, want %v", c.val, c.typ, got, c.want)
		}
	}
}

func TestJoinOrdering(t *testing.T) {
	cases := []struct {
		a, b, want Type
	}{
		{Scalar(KindInt), Scalar(KindInt), Scalar(KindInt)},
		{Scalar(KindPort), Scalar(KindInt), Scalar(KindInt)},
		{Scalar(KindInt), Scalar(KindFloat), Scalar(KindFloat)},
		{Scalar(KindInt), Scalar(KindBool), TString},
		{Scalar(KindInt), ListOf(KindInt), ListOf(KindInt)}, // the paper's example
		{Scalar(KindIP), ListOf(KindIP), ListOf(KindIP)},
		{ListOf(KindPort), ListOf(KindInt), ListOf(KindInt)},
		{Scalar(KindIP), Scalar(KindHostname), Scalar(KindHostname)},
		{ListOf(KindInt), Scalar(KindIP), ListOf(KindString)},
		{Scalar(KindBool), TString, TString},
	}
	for _, c := range cases {
		if got := Join(c.a, c.b); got != c.want {
			t.Errorf("Join(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Join(c.b, c.a); got != c.want {
			t.Errorf("Join(%v, %v) = %v, want %v (commuted)", c.b, c.a, got, c.want)
		}
	}
}

func TestLEReflexiveAndTop(t *testing.T) {
	kinds := []Kind{KindBool, KindInt, KindFloat, KindPort, KindIP, KindCIDR, KindMAC,
		KindGUID, KindURL, KindPath, KindHostname, KindEmail, KindVersion, KindSize,
		KindDuration, KindIPRange, KindString}
	for _, k := range kinds {
		typ := Scalar(k)
		if !LE(typ, typ) {
			t.Errorf("LE(%v, %v) should be reflexive", typ, typ)
		}
		if !LE(typ, TString) {
			t.Errorf("LE(%v, string) should hold: string is top", typ)
		}
		lt := ListOf(k)
		if !LE(lt, lt) || !LE(lt, TString) {
			t.Errorf("list type %v should be <= itself and <= string", lt)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k, name := range kindNames {
		if k == KindInvalid || k == KindList {
			continue
		}
		got, ok := KindFromName(name)
		if !ok || got != k {
			t.Errorf("KindFromName(%q) = %v/%v, want %v", name, got, ok, k)
		}
	}
	if _, ok := KindFromName("nosuchtype"); ok {
		t.Error("KindFromName should reject unknown names")
	}
}
