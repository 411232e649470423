package vtype

import (
	"net"
	"net/netip"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Typing a value allocates nothing. Each parser checks the syntax of its
// input before it calls strconv or netip, so a value that cannot be a
// number or an address is turned away without an error being built, and
// letters are compared without lowering a copy. FuzzVtype holds every
// parser to the strconv- and net-based original kept in oracle_test.go.

// IsBool reports whether s is a boolean literal. Configuration data uses
// several spellings; all of true/false, yes/no, on/off (case-insensitive)
// and 0/1 are NOT accepted for 0/1 (those are integers), matching the
// paper's treatment of booleans as a distinct narrow type.
func IsBool(s string) bool {
	_, ok := ParseBool(s)
	return ok
}

// ParseBool converts a boolean literal to its value. The second result is
// false when s is not a boolean literal.
func ParseBool(s string) (bool, bool) {
	s = foldable(s)
	switch {
	case equalFold(s, "true"), equalFold(s, "yes"), equalFold(s, "on"):
		return true, true
	case equalFold(s, "false"), equalFold(s, "no"), equalFold(s, "off"):
		return false, true
	}
	return false, false
}

// foldable returns s ready for the ASCII case-insensitive comparisons
// below: s itself when it is ASCII, strings.ToLower(s) otherwise, because
// lowering maps a few non-ASCII letters onto ASCII ones (the Kelvin sign
// onto k, the dotted capital I onto i) and the comparisons must see that.
func foldable(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strings.ToLower(s)
		}
	}
	return s
}

// equalFold reports whether s equals the lower-case ASCII word w, ignoring
// ASCII case.
func equalFold(s, w string) bool {
	if len(s) != len(w) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != w[i] {
			return false
		}
	}
	return true
}

func hasPrefixFold(s, w string) bool { return len(s) >= len(w) && equalFold(s[:len(w)], w) }
func hasSuffixFold(s, w string) bool { return len(s) >= len(w) && equalFold(s[len(s)-len(w):], w) }

// IsInt reports whether s is a decimal or 0x-prefixed integer.
func IsInt(s string) bool {
	_, ok := ParseInt(s)
	return ok
}

// ParseInt parses a decimal or hexadecimal (0x) integer.
func ParseInt(s string) (int64, bool) {
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
	if !isDigits(body, base) {
		return 0, false
	}
	v, err := strconv.ParseInt(body, base, 64) // fails only out of range
	if err != nil {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// isDigits reports whether s is an optional sign and one or more digits of
// base 10 or 16: all that strconv.ParseInt accepts at that base but for
// values out of range.
func isDigits(s string, base int) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !(isDigit(c) || base == 16 && isHexDigit(c)) {
			return false
		}
	}
	return true
}

// IsFloat reports whether s parses as a floating-point number. Integers
// qualify (Int <= Float in the type lattice).
func IsFloat(s string) bool {
	_, ok := ParseFloat(s)
	return ok
}

// ParseFloat parses a floating-point literal. Hexadecimal integers are
// rejected; "inf"/"nan" spellings are rejected because they never appear
// intentionally in configuration data.
func ParseFloat(s string) (float64, bool) {
	if !isDecimal(s) {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64) // fails only out of range
	if err != nil {
		return 0, false
	}
	return v, true
}

// isDecimal reports whether s is a decimal floating-point literal in Go's
// syntax: an optional sign, digits with at most one decimal point and at
// least one digit, then an optional exponent with at least one digit, an
// underscore allowed only between two digits. That is all
// strconv.ParseFloat accepts but its inf/nan spellings and hexadecimal
// floats, which ParseFloat rejects.
func isDecimal(s string) bool {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits, dot := false, false
	for ; i < len(s); i++ {
		if c := s[i]; isDigit(c) {
			digits = true
		} else if c == '.' && !dot {
			dot = true
		} else if !digitSeparator(s, i) {
			break
		}
	}
	if !digits {
		return false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := i
		for i < len(s) && (isDigit(s[i]) || digitSeparator(s, i)) {
			i++
		}
		if i == j {
			return false
		}
	}
	return i == len(s)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digitSeparator reports whether s[i] is an underscore between two digits.
func digitSeparator(s string, i int) bool {
	return s[i] == '_' && i > 0 && isDigit(s[i-1]) && i+1 < len(s) && isDigit(s[i+1])
}

// IsPort reports whether s is an integer in the valid TCP/UDP port range.
func IsPort(s string) bool {
	v, ok := ParseInt(s)
	return ok && v >= 1 && v <= 65535 && !strings.HasPrefix(s, "0x") && !strings.HasPrefix(s, "0X")
}

// IsIP reports whether s is an IPv4 or IPv6 address.
func IsIP(s string) bool {
	_, ok := parseIP(s)
	return ok
}

// ParseIP parses an IP address; the second result is false on failure.
// The result is 16 bytes long, as net.ParseIP's is.
func ParseIP(s string) (net.IP, bool) {
	a, ok := parseIP(s)
	if !ok {
		return nil, false
	}
	return ipSlice(a), true
}

func ipSlice(a netip.Addr) net.IP {
	b := a.As16()
	return net.IP(b[:])
}

// parseIP accepts exactly what net.ParseIP does: netip.ParseAddr's syntax
// without a zone. It reads a dotted IPv4 address itself and hands netip
// only text that can be IPv6, so a value that is no address never reaches
// a parser that builds an error for it.
func parseIP(s string) (netip.Addr, bool) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '.':
			return parseIPv4(s)
		case ':':
			if !maybeIPv6(s) {
				return netip.Addr{}, false
			}
			a, err := netip.ParseAddr(s)
			return a, err == nil
		case '%':
			return netip.Addr{}, false
		}
	}
	return netip.Addr{}, false
}

// parseIPv4 parses a dotted quad with netip's rules: four decimal fields
// of at most 255, none with a leading zero.
func parseIPv4(s string) (netip.Addr, bool) {
	var fields [4]byte
	val, pos, digits := 0, 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case isDigit(c):
			if digits == 1 && val == 0 {
				return netip.Addr{}, false
			}
			val = val*10 + int(c-'0')
			digits++
			if val > 255 {
				return netip.Addr{}, false
			}
		case c == '.':
			if digits == 0 || pos == 3 {
				return netip.Addr{}, false
			}
			fields[pos] = byte(val)
			pos++
			val, digits = 0, 0
		default:
			return netip.Addr{}, false
		}
	}
	if pos < 3 || digits == 0 {
		return netip.Addr{}, false
	}
	fields[3] = byte(val)
	return netip.AddrFrom4(fields), true
}

// maybeIPv6 reports whether s is made only of what an IPv6 address
// without a zone is made of: hex digits, colons and the dots of an
// embedded IPv4 address.
func maybeIPv6(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isHexDigit(c) && c != ':' && c != '.' {
			return false
		}
	}
	return true
}

// compareAddr orders two addresses as CompareIP orders their net.IP forms:
// an IPv4-mapped IPv6 address is the IPv4 address, and IPv4 orders before
// IPv6.
func compareAddr(a, b netip.Addr) int { return a.Unmap().Compare(b.Unmap()) }

// IsIPRange reports whether s has the form "ip1-ip2" with ip1 <= ip2.
func IsIPRange(s string) bool {
	_, _, ok := ParseIPRange(s)
	return ok
}

// ParseIPRange parses an "ip1-ip2" range, returning both endpoints.
func ParseIPRange(s string) (lo, hi net.IP, ok bool) {
	a, b, ok := parseIPRange(s)
	if !ok {
		return nil, nil, false
	}
	return ipSlice(a), ipSlice(b), true
}

func parseIPRange(s string) (lo, hi netip.Addr, ok bool) {
	l, h, _ := strings.Cut(s, "-")
	if l == "" || h == "" {
		return netip.Addr{}, netip.Addr{}, false
	}
	lo, okL := parseIP(strings.TrimSpace(l))
	hi, okH := parseIP(strings.TrimSpace(h))
	if !okL || !okH || compareAddr(lo, hi) > 0 {
		return netip.Addr{}, netip.Addr{}, false
	}
	return lo, hi, true
}

// CompareIP orders two IP addresses numerically: -1, 0 or +1.
// IPv4 addresses order before IPv6.
func CompareIP(a, b net.IP) int {
	a4, b4 := a.To4(), b.To4()
	switch {
	case a4 != nil && b4 != nil:
		return compareBytes(a4, b4)
	case a4 != nil:
		return -1
	case b4 != nil:
		return 1
	default:
		return compareBytes(a.To16(), b.To16())
	}
}

func compareBytes(a, b []byte) int {
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

// IsCIDR reports whether s is CIDR notation ("10.0.0.0/24"), by
// net.ParseCIDR's rules: an address without a zone, then a decimal prefix
// length of at most 32 for IPv4 and 128 for IPv6.
func IsCIDR(s string) bool {
	addr, bits, _ := strings.Cut(s, "/")
	ip, ok := parseIP(addr)
	if !ok || bits == "" {
		return false
	}
	maxBits := 128
	if ip.Is4() {
		maxBits = 32
	}
	n := 0
	for i := 0; i < len(bits); i++ {
		c := bits[i]
		if !isDigit(c) {
			return false
		}
		if n = n*10 + int(c-'0'); n > maxBits {
			return false
		}
	}
	return true
}

// IPInCIDR reports whether the address lies inside the CIDR block.
func IPInCIDR(ipStr, cidrStr string) bool {
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

// IsMAC reports whether s is a MAC address in any form net.ParseMAC
// accepts: 6, 8 or 20 hex octets, either each pair split by ':' or '-'
// ("01:23:45:67:89:ab") or each four digits split by '.'
// ("0123.4567.89ab").
func IsMAC(s string) bool {
	if len(s) < 14 { // "01:23:45:67:89:ab" is 17; reject short EUI forms rarely seen in configs
		return false
	}
	sep, group, octets := s[2], 3, (len(s)+1)/3
	switch {
	case sep == ':' || sep == '-':
		if (len(s)+1)%3 != 0 {
			return false
		}
	case s[4] == '.':
		sep, group, octets = '.', 5, 2*(len(s)+1)/5
		if (len(s)+1)%5 != 0 {
			return false
		}
	default:
		return false
	}
	if octets != 6 && octets != 8 && octets != 20 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if i%group == group-1 {
			if s[i] != sep {
				return false
			}
		} else if !isHexDigit(s[i]) {
			return false
		}
	}
	return true
}

// IsGUID reports whether s is a GUID/UUID like
// "3F2504E0-4F89-11D3-9A0C-0305E82C3301", with or without braces.
func IsGUID(s string) bool {
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
			if !isHexDigit(byte(c)) {
				return false
			}
		}
	}
	return true
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// urlSchemes lists schemes recognized by IsURL.
var urlSchemes = []string{"http://", "https://", "ftp://", "tcp://", "udp://", "ssh://", "file://", "net.tcp://"}

// IsURL reports whether s looks like a URL with a known scheme and a
// nonempty host part.
func IsURL(s string) bool {
	low := foldable(s)
	for _, scheme := range urlSchemes {
		if hasPrefixFold(low, scheme) && len(s) > len(scheme) {
			rest := s[len(scheme):]
			return !strings.ContainsAny(rest, " \t")
		}
	}
	return false
}

// IsPathLike reports whether s looks like a filesystem path: a UNC share
// (\\host\share), a Windows drive path (C:\x), or a Unix absolute path.
// Relative paths are indistinguishable from free text and are rejected.
func IsPathLike(s string) bool {
	if strings.ContainsAny(s, " \t") {
		return false
	}
	switch {
	case strings.HasPrefix(s, `\\`) && len(s) > 2:
		return true
	case len(s) >= 3 && isAlpha(s[0]) && s[1] == ':' && (s[2] == '\\' || s[2] == '/'):
		return true
	case strings.HasPrefix(s, "/") && len(s) > 1 && !strings.Contains(s, "//"):
		return true
	}
	return false
}

func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// IsHostname reports whether s is a DNS hostname with at least two labels
// (single labels are indistinguishable from identifiers).
func IsHostname(s string) bool {
	if len(s) == 0 || len(s) > 253 || strings.IndexByte(s, '.') < 0 || strings.ContainsAny(s, " \t/\\") {
		return false
	}
	for rest, more := s, true; more; {
		var l string
		l, rest, more = strings.Cut(rest, ".")
		if len(l) == 0 || len(l) > 63 {
			return false
		}
		for i := 0; i < len(l); i++ {
			c := l[i]
			ok := isAlpha(c) || c >= '0' && c <= '9' || c == '-'
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

// IsEmail reports whether s has the form local@domain with a valid
// hostname domain.
func IsEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	if at <= 0 || at == len(s)-1 {
		return false
	}
	local, domain := s[:at], s[at+1:]
	if strings.ContainsAny(local, " \t@") {
		return false
	}
	return IsHostname(domain)
}

// IsVersion reports whether s is a dotted version like "1.2", "2.0.14" or
// "v3.1.4", with 2 to 4 numeric components.
func IsVersion(s string) bool {
	rest := strings.TrimPrefix(s, "v")
	parts := 0
	for more := true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ".")
		if parts++; parts > 4 || p == "" || len(p) > 6 {
			return false
		}
		for i := 0; i < len(p); i++ {
			if p[i] < '0' || p[i] > '9' {
				return false
			}
		}
	}
	return parts >= 2
}

// sizeSuffixes maps size suffixes to their byte multipliers.
var sizeSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"tb", 1 << 40}, {"gb", 1 << 30}, {"mb", 1 << 20}, {"kb", 1 << 10}, {"b", 1},
}

// IsSize reports whether s is a byte size like "512MB" or "4gb".
func IsSize(s string) bool {
	_, ok := ParseSize(s)
	return ok
}

// maxBytes is 2^63, the first byte count an int64 cannot hold.
const maxBytes = 1 << 63

// ParseSize parses a byte-size literal into bytes. The number takes
// ParseFloat's grammar, and a size past the int64 range is not a size.
func ParseSize(s string) (int64, bool) {
	low := foldable(strings.TrimSpace(s))
	for _, e := range sizeSuffixes {
		if hasSuffixFold(low, e.suffix) {
			num := strings.TrimSpace(low[:len(low)-len(e.suffix)])
			if num == "" {
				return 0, false
			}
			v, ok := ParseFloat(num)
			if !ok || v < 0 {
				return 0, false
			}
			b := v * float64(e.mult)
			if b >= maxBytes {
				return 0, false
			}
			return int64(b), true
		}
	}
	return 0, false
}

// durationSuffixes maps duration suffixes to milliseconds.
var durationSuffixes = []struct {
	suffix string
	ms     float64
}{
	{"ms", 1}, {"sec", 1000}, {"s", 1000}, {"min", 60000}, {"m", 60000}, {"h", 3600000}, {"d", 86400000},
}

// IsDuration reports whether s is a duration like "30s", "5min" or "100ms".
// Bare numbers are not durations (they are ints).
func IsDuration(s string) bool {
	_, ok := ParseDuration(s)
	return ok
}

// ParseDuration parses a duration literal into milliseconds. The number
// takes ParseFloat's grammar.
func ParseDuration(s string) (float64, bool) {
	low := foldable(strings.TrimSpace(s))
	for _, e := range durationSuffixes {
		if hasSuffixFold(low, e.suffix) {
			num := strings.TrimSpace(low[:len(low)-len(e.suffix)])
			if num == "" {
				return 0, false
			}
			v, ok := ParseFloat(num)
			if !ok || v < 0 {
				return 0, false
			}
			return v * e.ms, true
		}
	}
	return 0, false
}

// SplitList splits a raw value on the first list separator that yields more
// than one element, trimming whitespace. A value with no separator returns
// a single-element slice.
func SplitList(raw string) []string {
	for _, sep := range listSeparators {
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

// CompareValues orders two raw values for range/order predicates: numeric
// comparison when both parse as numbers, IP comparison when both are IPs,
// version-aware comparison for versions, falling back to string order.
// The second result is false when the values are incomparable kinds that
// fell back to string comparison.
func CompareValues(a, b string) (int, bool) {
	if fa, oka := ParseFloat(a); oka {
		if fb, okb := ParseFloat(b); okb {
			switch {
			case fa < fb:
				return -1, true
			case fa > fb:
				return 1, true
			}
			return 0, true
		}
	}
	if ipa, oka := parseIP(a); oka {
		if ipb, okb := parseIP(b); okb {
			return compareAddr(ipa, ipb), true
		}
	}
	if IsVersion(a) && IsVersion(b) {
		return compareVersions(a, b), true
	}
	if sa, oka := ParseSize(a); oka {
		if sb, okb := ParseSize(b); okb {
			return compareInt64(sa, sb), true
		}
	}
	if da, oka := ParseDuration(a); oka {
		if db, okb := ParseDuration(b); okb {
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

func compareInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compareVersions orders two versions component by component, a missing
// component counting as 0.
func compareVersions(a, b string) int {
	a, b = strings.TrimPrefix(a, "v"), strings.TrimPrefix(b, "v")
	for moreA, moreB := true, true; moreA || moreB; {
		var pa, pb string
		if moreA {
			pa, a, moreA = strings.Cut(a, ".")
		}
		if moreB {
			pb, b, moreB = strings.Cut(b, ".")
		}
		va, _ := ParseInt(pa)
		vb, _ := ParseInt(pb)
		if c := compareInt64(va, vb); c != 0 {
			return c
		}
	}
	return 0
}

// Classified is a raw value with every typed interpretation it admits
// parsed up front. Repeated comparisons against the same value — an
// equality peer set, a literal relation bound, enumeration members —
// classify it once and then parse only the varying side per element,
// instead of re-running every parser on both sides each time.
type Classified struct {
	Raw   string
	f     float64
	isF   bool
	ip    netip.Addr // unmapped, so it orders as CompareIP does
	isIP  bool
	isVer bool
	sz    int64
	isSz  bool
	dur   float64
	isDur bool
	// Stringish records Detect(Raw).IsString() && nonblank, the
	// plain-text side of predicate.Orderable's fallback rule.
	Stringish bool
}

// Classify parses raw into every typed domain once.
func Classify(raw string) Classified {
	c := Classified{Raw: raw}
	c.f, c.isF = ParseFloat(raw)
	c.ip, c.isIP = parseIP(raw)
	c.ip = c.ip.Unmap()
	c.isVer = IsVersion(raw)
	c.sz, c.isSz = ParseSize(raw)
	c.dur, c.isDur = ParseDuration(raw)
	c.Stringish = Detect(raw).IsString() && strings.TrimSpace(raw) != ""
	return c
}

// Compare orders a against the classified value with exactly
// CompareValues(a, c.Raw) semantics: each typed domain applies only when
// both sides belong to it, tried in the same order, with the same string
// fallback.
func (c *Classified) Compare(a string) (int, bool) {
	if c.isF {
		if fa, ok := ParseFloat(a); ok {
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
		if ipa, ok := parseIP(a); ok {
			return ipa.Unmap().Compare(c.ip), true
		}
	}
	if c.isVer && IsVersion(a) {
		return compareVersions(a, c.Raw), true
	}
	if c.isSz {
		if sa, ok := ParseSize(a); ok {
			return compareInt64(sa, c.sz), true
		}
	}
	if c.isDur {
		if da, ok := ParseDuration(a); ok {
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
