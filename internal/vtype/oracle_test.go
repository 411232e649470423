package vtype

// The value parsers as they stood before typing stopped allocating:
// strconv and net do the work, and each non-match builds an error. They
// are kept verbatim, renamed with an "oracle" prefix, so FuzzVtype can
// hold the allocation-free parsers to them on arbitrary input.

import (
	"net"
	"strconv"
	"strings"
)

// oracleIsBool reports whether s is a boolean literal. Configuration data uses
// several spellings; all of true/false, yes/no, on/off (case-insensitive)
// and 0/1 are NOT accepted for 0/1 (those are integers), matching the
// paper's treatment of booleans as a distinct narrow type.
func oracleIsBool(s string) bool {
	switch strings.ToLower(s) {
	case "true", "false", "yes", "no", "on", "off":
		return true
	}
	return false
}

// oracleParseBool converts a boolean literal to its value. The second result is
// false when s is not a boolean literal.
func oracleParseBool(s string) (bool, bool) {
	switch strings.ToLower(s) {
	case "true", "yes", "on":
		return true, true
	case "false", "no", "off":
		return false, true
	}
	return false, false
}

// oracleIsInt reports whether s is a decimal or 0x-prefixed integer.
func oracleIsInt(s string) bool {
	_, ok := oracleParseInt(s)
	return ok
}

// oracleParseInt parses a decimal or hexadecimal (0x) integer.
func oracleParseInt(s string) (int64, bool) {
	if s == "" {
		return 0, false
	}
	body, neg := s, false
	if body[0] == '+' || body[0] == '-' {
		neg = body[0] == '-'
		body = body[1:]
	}
	base := 10
	if strings.HasPrefix(body, "0x") || strings.HasPrefix(body, "0X") {
		base = 16
		body = body[2:]
	}
	v, err := strconv.ParseInt(body, base, 64)
	if err != nil {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// oracleIsFloat reports whether s parses as a floating-point number. Integers
// qualify (Int <= Float in the type lattice).
func oracleIsFloat(s string) bool {
	_, ok := oracleParseFloat(s)
	return ok
}

// oracleParseFloat parses a floating-point literal. Hexadecimal integers are
// rejected; "inf"/"nan" spellings are rejected because they never appear
// intentionally in configuration data.
func oracleParseFloat(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	low := strings.ToLower(s)
	if strings.Contains(low, "inf") || strings.Contains(low, "nan") || strings.Contains(low, "x") {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// oracleIsPort reports whether s is an integer in the valid TCP/UDP port range.
func oracleIsPort(s string) bool {
	v, ok := oracleParseInt(s)
	return ok && v >= 1 && v <= 65535 && !strings.HasPrefix(s, "0x") && !strings.HasPrefix(s, "0X")
}

// oracleIsIP reports whether s is an IPv4 or IPv6 address.
func oracleIsIP(s string) bool { return net.ParseIP(s) != nil }

// oracleParseIP parses an IP address; the second result is false on failure.
func oracleParseIP(s string) (net.IP, bool) {
	ip := net.ParseIP(s)
	return ip, ip != nil
}

// oracleIsIPRange reports whether s has the form "ip1-ip2" with ip1 <= ip2.
func oracleIsIPRange(s string) bool {
	_, _, ok := oracleParseIPRange(s)
	return ok
}

// oracleParseIPRange parses an "ip1-ip2" range, returning both endpoints.
func oracleParseIPRange(s string) (lo, hi net.IP, ok bool) {
	i := strings.IndexByte(s, '-')
	if i <= 0 || i == len(s)-1 {
		return nil, nil, false
	}
	lo = net.ParseIP(strings.TrimSpace(s[:i]))
	hi = net.ParseIP(strings.TrimSpace(s[i+1:]))
	if lo == nil || hi == nil {
		return nil, nil, false
	}
	if oracleCompareIP(lo, hi) > 0 {
		return nil, nil, false
	}
	return lo, hi, true
}

// oracleCompareIP orders two IP addresses numerically: -1, 0 or +1.
// IPv4 addresses order before IPv6.
func oracleCompareIP(a, b net.IP) int {
	a4, b4 := a.To4(), b.To4()
	switch {
	case a4 != nil && b4 != nil:
		return oracleCompareBytes(a4, b4)
	case a4 != nil:
		return -1
	case b4 != nil:
		return 1
	default:
		return oracleCompareBytes(a.To16(), b.To16())
	}
}

func oracleCompareBytes(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// oracleIsCIDR reports whether s is CIDR notation ("10.0.0.0/24").
func oracleIsCIDR(s string) bool {
	_, _, err := net.ParseCIDR(s)
	return err == nil
}

// oracleIPInCIDR reports whether the address lies inside the CIDR block.
func oracleIPInCIDR(ipStr, cidrStr string) bool {
	ip := net.ParseIP(ipStr)
	if ip == nil {
		return false
	}
	_, block, err := net.ParseCIDR(cidrStr)
	if err != nil {
		return false
	}
	return block.Contains(ip)
}

// oracleIsMAC reports whether s is a MAC address in any form net.ParseMAC accepts.
func oracleIsMAC(s string) bool {
	if len(s) < 14 { // "01:23:45:67:89:ab" is 17; reject short EUI forms rarely seen in configs
		return false
	}
	_, err := net.ParseMAC(s)
	return err == nil
}

// oracleIsGUID reports whether s is a GUID/UUID like
// "3F2504E0-4F89-11D3-9A0C-0305E82C3301", with or without braces.
func oracleIsGUID(s string) bool {
	s = strings.TrimPrefix(strings.TrimSuffix(s, "}"), "{")
	if len(s) != 36 {
		return false
	}
	for i, c := range s {
		switch i {
		case 8, 13, 18, 23:
			if c != '-' {
				return false
			}
		default:
			if !oracleIsHexDigit(byte(c)) {
				return false
			}
		}
	}
	return true
}

func oracleIsHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// oracleUrlSchemes lists schemes recognized by oracleIsURL.
var oracleUrlSchemes = []string{"http://", "https://", "ftp://", "tcp://", "udp://", "ssh://", "file://", "net.tcp://"}

// oracleIsURL reports whether s looks like a URL with a known scheme and a
// nonempty host part.
func oracleIsURL(s string) bool {
	low := strings.ToLower(s)
	for _, scheme := range oracleUrlSchemes {
		if strings.HasPrefix(low, scheme) && len(s) > len(scheme) {
			rest := s[len(scheme):]
			return !strings.ContainsAny(rest, " \t")
		}
	}
	return false
}

// oracleIsPathLike reports whether s looks like a filesystem path: a UNC share
// (\\host\share), a Windows drive path (C:\x), or a Unix absolute path.
// Relative paths are indistinguishable from free text and are rejected.
func oracleIsPathLike(s string) bool {
	if strings.ContainsAny(s, " \t") {
		return false
	}
	switch {
	case strings.HasPrefix(s, `\\`) && len(s) > 2:
		return true
	case len(s) >= 3 && oracleIsAlpha(s[0]) && s[1] == ':' && (s[2] == '\\' || s[2] == '/'):
		return true
	case strings.HasPrefix(s, "/") && len(s) > 1 && !strings.Contains(s, "//"):
		return true
	}
	return false
}

func oracleIsAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// oracleIsHostname reports whether s is a DNS hostname with at least two labels
// (single labels are indistinguishable from identifiers).
func oracleIsHostname(s string) bool {
	if len(s) == 0 || len(s) > 253 || strings.ContainsAny(s, " \t/\\") {
		return false
	}
	labels := strings.Split(s, ".")
	if len(labels) < 2 {
		return false
	}
	for _, l := range labels {
		if len(l) == 0 || len(l) > 63 {
			return false
		}
		for i := 0; i < len(l); i++ {
			c := l[i]
			ok := oracleIsAlpha(c) || c >= '0' && c <= '9' || c == '-'
			if !ok {
				return false
			}
		}
		if l[0] == '-' || l[len(l)-1] == '-' {
			return false
		}
	}
	// All-numeric labels means this is (part of) an IP, not a hostname.
	allDigits := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != '.' && (c < '0' || c > '9') {
			allDigits = false
			break
		}
	}
	return !allDigits
}

// oracleIsEmail reports whether s has the form local@domain with a valid
// hostname domain.
func oracleIsEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	if at <= 0 || at == len(s)-1 {
		return false
	}
	local, domain := s[:at], s[at+1:]
	if strings.ContainsAny(local, " \t@") {
		return false
	}
	return oracleIsHostname(domain)
}

// oracleIsVersion reports whether s is a dotted version like "1.2", "2.0.14" or
// "v3.1.4", with 2 to 4 numeric components.
func oracleIsVersion(s string) bool {
	s = strings.TrimPrefix(s, "v")
	parts := strings.Split(s, ".")
	if len(parts) < 2 || len(parts) > 4 {
		return false
	}
	for _, p := range parts {
		if p == "" || len(p) > 6 {
			return false
		}
		for i := 0; i < len(p); i++ {
			if p[i] < '0' || p[i] > '9' {
				return false
			}
		}
	}
	return true
}

// oracleSizeSuffixes maps size suffixes to their byte multipliers.
var oracleSizeSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"tb", 1 << 40}, {"gb", 1 << 30}, {"mb", 1 << 20}, {"kb", 1 << 10}, {"b", 1},
}

// oracleIsSize reports whether s is a byte size like "512MB" or "4gb".
func oracleIsSize(s string) bool {
	_, ok := oracleParseSize(s)
	return ok
}

// oracleMaxBytes is 2^63, the first byte count an int64 cannot hold.
const oracleMaxBytes = 1 << 63

// oracleParseSize parses a byte-size literal into bytes. The number takes
// oracleParseFloat's grammar, and a size past the int64 range is not a size.
func oracleParseSize(s string) (int64, bool) {
	low := strings.ToLower(strings.TrimSpace(s))
	for _, e := range oracleSizeSuffixes {
		if strings.HasSuffix(low, e.suffix) {
			num := strings.TrimSpace(strings.TrimSuffix(low, e.suffix))
			if num == "" {
				return 0, false
			}
			v, ok := oracleParseFloat(num)
			if !ok || v < 0 {
				return 0, false
			}
			b := v * float64(e.mult)
			if b >= oracleMaxBytes {
				return 0, false
			}
			return int64(b), true
		}
	}
	return 0, false
}

// oracleDurationSuffixes maps duration suffixes to milliseconds.
var oracleDurationSuffixes = []struct {
	suffix string
	ms     float64
}{
	{"ms", 1}, {"sec", 1000}, {"s", 1000}, {"min", 60000}, {"m", 60000}, {"h", 3600000}, {"d", 86400000},
}

// oracleIsDuration reports whether s is a duration like "30s", "5min" or "100ms".
// Bare numbers are not durations (they are ints).
func oracleIsDuration(s string) bool {
	_, ok := oracleParseDuration(s)
	return ok
}

// oracleParseDuration parses a duration literal into milliseconds. The number
// takes oracleParseFloat's grammar.
func oracleParseDuration(s string) (float64, bool) {
	low := strings.ToLower(strings.TrimSpace(s))
	for _, e := range oracleDurationSuffixes {
		if strings.HasSuffix(low, e.suffix) {
			num := strings.TrimSpace(strings.TrimSuffix(low, e.suffix))
			if num == "" {
				return 0, false
			}
			v, ok := oracleParseFloat(num)
			if !ok || v < 0 {
				return 0, false
			}
			return v * e.ms, true
		}
	}
	return 0, false
}

// oracleSplitList splits a raw value on the first list separator that yields more
// than one element, trimming whitespace. A value with no separator returns
// a single-element slice.
func oracleSplitList(raw string) []string {
	for _, sep := range oracleListSeparators {
		if strings.Contains(raw, sep) {
			parts := strings.Split(raw, sep)
			out := make([]string, len(parts))
			for i, p := range parts {
				out[i] = strings.TrimSpace(p)
			}
			return out
		}
	}
	return []string{strings.TrimSpace(raw)}
}

// oracleCompareValues orders two raw values for range/order predicates: numeric
// comparison when both parse as numbers, IP comparison when both are IPs,
// version-aware comparison for versions, falling back to string order.
// The second result is false when the values are incomparable kinds that
// fell back to string comparison.
func oracleCompareValues(a, b string) (int, bool) {
	if fa, oka := oracleParseFloat(a); oka {
		if fb, okb := oracleParseFloat(b); okb {
			switch {
			case fa < fb:
				return -1, true
			case fa > fb:
				return 1, true
			}
			return 0, true
		}
	}
	if ipa, oka := oracleParseIP(a); oka {
		if ipb, okb := oracleParseIP(b); okb {
			return oracleCompareIP(ipa, ipb), true
		}
	}
	if oracleIsVersion(a) && oracleIsVersion(b) {
		return oracleCompareVersions(a, b), true
	}
	if sa, oka := oracleParseSize(a); oka {
		if sb, okb := oracleParseSize(b); okb {
			return oracleCompareInt64(sa, sb), true
		}
	}
	if da, oka := oracleParseDuration(a); oka {
		if db, okb := oracleParseDuration(b); okb {
			switch {
			case da < db:
				return -1, true
			case da > db:
				return 1, true
			}
			return 0, true
		}
	}
	return strings.Compare(a, b), false
}

func oracleCompareInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func oracleCompareVersions(a, b string) int {
	pa := strings.Split(strings.TrimPrefix(a, "v"), ".")
	pb := strings.Split(strings.TrimPrefix(b, "v"), ".")
	for i := 0; i < len(pa) || i < len(pb); i++ {
		var va, vb int64
		if i < len(pa) {
			va, _ = oracleParseInt(pa[i])
		}
		if i < len(pb) {
			vb, _ = oracleParseInt(pb[i])
		}
		if c := oracleCompareInt64(va, vb); c != 0 {
			return c
		}
	}
	return 0
}

// oracleClassified is a raw value with every typed interpretation it admits
// parsed up front. Repeated comparisons against the same value — an
// equality peer set, a literal relation bound, enumeration members —
// classify it once and then parse only the varying side per element,
// instead of re-running every parser on both sides each time.
type oracleClassified struct {
	Raw   string
	f     float64
	isF   bool
	ip    net.IP
	isIP  bool
	isVer bool
	sz    int64
	isSz  bool
	dur   float64
	isDur bool
	// Stringish records oracleDetect(Raw).IsString() && nonblank, the
	// plain-text side of predicate.Orderable's fallback rule.
	Stringish bool
}

// oracleClassify parses raw into every typed domain once.
func oracleClassify(raw string) oracleClassified {
	c := oracleClassified{Raw: raw}
	c.f, c.isF = oracleParseFloat(raw)
	c.ip, c.isIP = oracleParseIP(raw)
	c.isVer = oracleIsVersion(raw)
	c.sz, c.isSz = oracleParseSize(raw)
	c.dur, c.isDur = oracleParseDuration(raw)
	c.Stringish = oracleDetect(raw).IsString() && strings.TrimSpace(raw) != ""
	return c
}

// Compare orders a against the classified value with exactly
// oracleCompareValues(a, c.Raw) semantics: each typed domain applies only when
// both sides belong to it, tried in the same order, with the same string
// fallback.
func (c *oracleClassified) Compare(a string) (int, bool) {
	if c.isF {
		if fa, ok := oracleParseFloat(a); ok {
			switch {
			case fa < c.f:
				return -1, true
			case fa > c.f:
				return 1, true
			}
			return 0, true
		}
	}
	if c.isIP {
		if ipa, ok := oracleParseIP(a); ok {
			return oracleCompareIP(ipa, c.ip), true
		}
	}
	if c.isVer && oracleIsVersion(a) {
		return oracleCompareVersions(a, c.Raw), true
	}
	if c.isSz {
		if sa, ok := oracleParseSize(a); ok {
			return oracleCompareInt64(sa, c.sz), true
		}
	}
	if c.isDur {
		if da, ok := oracleParseDuration(a); ok {
			switch {
			case da < c.dur:
				return -1, true
			case da > c.dur:
				return 1, true
			}
			return 0, true
		}
	}
	return strings.Compare(a, c.Raw), false
}

// oracleListSeparators are accepted list delimiters, in detection priority order.
// Azure-style configuration uses both ';' and ',' heavily.
var oracleListSeparators = []string{";", ","}

// oracleDetect returns the most specific Type the raw string conforms to.
// An empty string detects as String (emptiness is a separate constraint).
func oracleDetect(raw string) Type {
	s := strings.TrimSpace(raw)
	if s == "" {
		return TString
	}
	if k := oracleDetectScalar(s); k != KindString {
		return Scalar(k)
	}
	for _, sep := range oracleListSeparators {
		if !strings.Contains(s, sep) {
			continue
		}
		parts := strings.Split(s, sep)
		elem := KindInvalid
		ok := true
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p == "" {
				ok = false
				break
			}
			k := oracleDetectScalar(p)
			if k == KindString {
				ok = false
				break
			}
			if elem == KindInvalid {
				elem = k
			} else {
				elem = scalarJoin(elem, k)
			}
		}
		if ok && elem != KindInvalid && elem != KindString {
			return ListOf(elem)
		}
	}
	return TString
}

// oracleDetectScalar classifies a single non-list token.
func oracleDetectScalar(s string) Kind {
	switch {
	case oracleIsBool(s):
		return KindBool
	case oracleIsInt(s):
		if oracleIsPort(s) {
			return KindPort
		}
		return KindInt
	case oracleIsFloat(s):
		return KindFloat
	case oracleIsIP(s):
		return KindIP
	case oracleIsIPRange(s):
		return KindIPRange
	case oracleIsCIDR(s):
		return KindCIDR
	case oracleIsMAC(s):
		return KindMAC
	case oracleIsGUID(s):
		return KindGUID
	case oracleIsURL(s):
		return KindURL
	case oracleIsSize(s):
		return KindSize
	case oracleIsDuration(s):
		return KindDuration
	case oracleIsVersion(s):
		return KindVersion
	case oracleIsEmail(s):
		return KindEmail
	case oracleIsPathLike(s):
		return KindPath
	case oracleIsHostname(s):
		return KindHostname
	default:
		return KindString
	}
}

// oracleConforms reports whether the raw string is a member of the given type.
// This is the membership test used by CPL type predicates: a value conforms
// to "float" if it parses as a float, including plain integers.
func oracleConforms(raw string, t Type) bool {
	s := strings.TrimSpace(raw)
	if t.Kind == KindList {
		if s == "" {
			return false
		}
		for _, sep := range oracleListSeparators {
			parts := strings.Split(s, sep)
			ok := true
			for _, p := range parts {
				if !oracleConformsScalar(strings.TrimSpace(p), t.Elem) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
			if strings.Contains(s, sep) {
				return false
			}
		}
		return false
	}
	return oracleConformsScalar(s, t.Kind)
}

func oracleConformsScalar(s string, k Kind) bool {
	switch k {
	case KindBool:
		return oracleIsBool(s)
	case KindInt:
		return oracleIsInt(s)
	case KindPort:
		return oracleIsPort(s)
	case KindFloat:
		return oracleIsFloat(s)
	case KindIP:
		return oracleIsIP(s)
	case KindIPRange:
		return oracleIsIPRange(s)
	case KindCIDR:
		return oracleIsCIDR(s)
	case KindMAC:
		return oracleIsMAC(s)
	case KindGUID:
		return oracleIsGUID(s)
	case KindURL:
		return oracleIsURL(s)
	case KindPath:
		return oracleIsPathLike(s)
	case KindHostname:
		return oracleIsHostname(s)
	case KindEmail:
		return oracleIsEmail(s)
	case KindVersion:
		return oracleIsVersion(s)
	case KindSize:
		return oracleIsSize(s)
	case KindDuration:
		return oracleIsDuration(s)
	case KindString:
		return true
	default:
		return false
	}
}
