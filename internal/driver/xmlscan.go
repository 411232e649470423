package driver

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// xmlScanner is a pull scanner over one XML document. It accepts exactly
// the documents a strict encoding/xml Decoder with no CharsetReader and
// no Entity map accepts — the driver's oracle in xml_oracle_test.go is
// that decoder, and FuzzXML holds the two to the same verdict on every
// input — but it walks a string by index instead of boxing a token per
// construct: names and plain attribute values are substrings of s, the
// attribute slice is reused, and text, comments, processing instructions
// and directives are checked and dropped without being materialised.
type xmlScanner struct {
	s   string // private copy of the document; every string handed out borrows from it
	pos int

	// open holds the raw (prefixed) names of the open elements, innermost
	// last: an end tag must repeat its start tag byte for byte.
	open []string
	// attrs holds the attributes of the latest start event, names already
	// reduced to their local part. It is overwritten by the next start tag.
	attrs []xmlAttr
	// selfClosed is set by a start event for <a/>: the next event is its end.
	selfClosed bool
	buf        []byte          // scratch for attribute values that need rewriting
	wideNames  map[string]bool // verdicts of validWideName
}

type xmlAttr struct{ name, value string }

type xmlEvent uint8

const (
	xmlEOF xmlEvent = iota
	xmlStart
	xmlEnd
)

// Byte classes. A name is delimited by any single-byte character not
// valid in names, so every byte >= 0x80 continues one and is judged later.
const (
	cName  uint8 = 1 << iota // may appear in a name
	cColon                   // ':'
	cHigh                    // >= 0x80
	cSpace                   // ' ', '\t', '\r', '\n'
	cValue                   // an attribute value cannot be borrowed past this byte unexamined
	cText                    // character data cannot be skipped past this byte unexamined
)

var xmlClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = cName | cHigh | cValue | cText
		case 'A' <= c && c <= 'Z', 'a' <= c && c <= 'z', '0' <= c && c <= '9', c == '_', c == '.', c == '-':
			t[c] = cName
		case c == ':':
			t[c] = cName | cColon
		case c == ' ', c == '\t', c == '\n':
			t[c] = cSpace
		case c == '\r':
			t[c] = cSpace | cValue
		case c < 0x20:
			t[c] = cValue | cText
		case c == '<', c == '&':
			t[c] = cValue | cText
		case c == '"', c == '\'':
			t[c] = cValue
		case c == ']':
			t[c] = cText
		}
	}
	return t
}()

func (sc *xmlScanner) errorf(format string, args ...any) error {
	at := sc.pos
	if at > len(sc.s) {
		at = len(sc.s)
	}
	line := 1 + strings.Count(sc.s[:at], "\n")
	return fmt.Errorf("syntax error on line %d: %s", line, fmt.Sprintf(format, args...))
}

func (sc *xmlScanner) errEOF() error {
	sc.pos = len(sc.s)
	return sc.errorf("unexpected EOF")
}

// next returns the next start or end event, or xmlEOF once the input is
// exhausted with every element closed. A start event's name is the
// element's local name and its attributes are in sc.attrs.
func (sc *xmlScanner) next() (xmlEvent, string, error) {
	if sc.selfClosed {
		sc.selfClosed = false
		return xmlEnd, "", nil
	}
	s := sc.s
	for {
		if sc.pos >= len(s) {
			if len(sc.open) > 0 {
				return 0, "", sc.errEOF()
			}
			return xmlEOF, "", nil
		}
		if s[sc.pos] != '<' {
			if err := sc.skipText(); err != nil {
				return 0, "", err
			}
			continue
		}
		if sc.pos+1 >= len(s) {
			return 0, "", sc.errEOF()
		}
		switch s[sc.pos+1] {
		case '/':
			return xmlEnd, "", sc.endTag()
		case '?':
			if err := sc.procInst(); err != nil {
				return 0, "", err
			}
		case '!':
			if err := sc.bang(); err != nil {
				return 0, "", err
			}
		default:
			name, err := sc.startTag()
			return xmlStart, name, err
		}
	}
}

// name scans a name at sc.pos and validates its characters. ok is false
// with a nil error when no name starts here; the caller has the context
// for that message.
func (sc *xmlScanner) name() (name string, flags uint8, ok bool, err error) {
	s, i := sc.s, sc.pos
	for i < len(s) && xmlClass[s[i]]&cName != 0 {
		flags |= xmlClass[s[i]]
		i++
	}
	if i >= len(s) {
		// Markup never ends the input, with or without a name in it.
		return "", 0, false, sc.errEOF()
	}
	if i == sc.pos {
		return "", 0, false, nil
	}
	name = s[sc.pos:i]
	valid := name[0] > '9' // of the ASCII name bytes only digits, '.' and '-' may not start one
	if flags&cHigh != 0 {
		valid = sc.validWideName(name)
	}
	if !valid {
		return "", 0, false, sc.errorf("invalid XML name: %s", name)
	}
	sc.pos = i
	return name, flags, true, nil
}

// validWideName judges a name holding a byte >= 0x80 by handing it to
// encoding/xml as a processing-instruction target: XML 1.0's name tables
// are long, and such names are rare. A document that does use them
// repeats them, so each is judged once.
func (sc *xmlScanner) validWideName(name string) bool {
	valid, seen := sc.wideNames[name]
	if !seen {
		_, err := xml.NewDecoder(strings.NewReader("<?" + name + "?>")).RawToken()
		valid = err == nil
		if sc.wideNames == nil {
			sc.wideNames = make(map[string]bool)
		}
		sc.wideNames[name] = valid
	}
	return valid
}

// nsName scans a possibly prefixed name and returns it raw and reduced to
// its local part the way encoding/xml's Name.Local is: the prefix is cut
// at a single interior colon; a leading or trailing colon stays, and two
// colons are no name at all.
func (sc *xmlScanner) nsName() (raw, local string, ok bool, err error) {
	raw, flags, ok, err := sc.name()
	if !ok {
		return "", "", false, err
	}
	if flags&cColon == 0 {
		return raw, raw, true, nil
	}
	if strings.Count(raw, ":") > 1 {
		return "", "", false, nil
	}
	if space, rest, _ := strings.Cut(raw, ":"); space != "" && rest != "" {
		return raw, rest, true, nil
	}
	return raw, raw, true, nil
}

func (sc *xmlScanner) space() {
	s, i := sc.s, sc.pos
	for i < len(s) && xmlClass[s[i]]&cSpace != 0 {
		i++
	}
	sc.pos = i
}

// startTag scans <name attr="value" ...> or <name .../> at sc.pos.
func (sc *xmlScanner) startTag() (string, error) {
	s := sc.s
	sc.pos++
	raw, local, ok, err := sc.nsName()
	if !ok {
		if err == nil {
			err = sc.errorf("expected element name after <")
		}
		return "", err
	}
	sc.attrs = sc.attrs[:0]
	for {
		sc.space()
		if sc.pos >= len(s) {
			return "", sc.errEOF()
		}
		switch s[sc.pos] {
		case '/':
			if sc.pos+1 >= len(s) {
				return "", sc.errEOF()
			}
			if s[sc.pos+1] != '>' {
				return "", sc.errorf("expected /> in element")
			}
			sc.pos += 2
			sc.selfClosed = true
			return local, nil
		case '>':
			sc.pos++
			sc.open = append(sc.open, raw)
			return local, nil
		}
		_, attr, ok, err := sc.nsName()
		if !ok {
			if err == nil {
				err = sc.errorf("expected attribute name in element")
			}
			return "", err
		}
		sc.space()
		if sc.pos >= len(s) {
			return "", sc.errEOF()
		}
		if s[sc.pos] != '=' {
			return "", sc.errorf("attribute name without = in element")
		}
		sc.pos++
		sc.space()
		if sc.pos >= len(s) {
			return "", sc.errEOF()
		}
		quote := s[sc.pos]
		if quote != '"' && quote != '\'' {
			return "", sc.errorf("unquoted or missing attribute value in element")
		}
		sc.pos++
		value, err := sc.attrValue(quote)
		if err != nil {
			return "", err
		}
		sc.attrs = append(sc.attrs, xmlAttr{name: attr, value: value})
	}
}

// attrValue scans a quoted value whose opening quote is behind sc.pos. A
// value of plain ASCII with no reference and no carriage return is
// returned as a substring of the document; anything else is rewritten.
func (sc *xmlScanner) attrValue(quote byte) (string, error) {
	s, start := sc.s, sc.pos
	for i := start; i < len(s); i++ {
		c := s[i]
		if xmlClass[c]&cValue == 0 {
			continue
		}
		switch {
		case c == quote:
			sc.pos = i + 1
			return s[start:i], nil
		case c == '"', c == '\'':
		case c == '<':
			sc.pos = i
			return "", sc.errorf("unescaped < inside quoted string")
		case c == '&', c == '\r', c >= utf8.RuneSelf:
			return sc.rewriteValue(quote)
		default:
			sc.pos = i
			return "", sc.errorf("illegal character code %U", rune(c))
		}
	}
	return "", sc.errEOF()
}

// rewriteValue is the slow path of attrValue, from the same position: it
// expands references, folds \r\n and \r to \n, and checks the result is
// UTF-8 within XML's character range — encoding/xml's text, for a quoted
// string.
func (sc *xmlScanner) rewriteValue(quote byte) (string, error) {
	s, i := sc.s, sc.pos
	buf := sc.buf[:0]
	var prev byte // previous raw byte; a reference resets it
	for ; ; i++ {
		if i >= len(s) {
			return "", sc.errEOF()
		}
		c := s[i]
		if c == quote {
			break
		}
		switch {
		case c == '<':
			sc.pos = i
			return "", sc.errorf("unescaped < inside quoted string")
		case c == '&':
			sc.pos = i
			r, err := sc.reference()
			if err != nil {
				return "", err
			}
			buf = utf8.AppendRune(buf, r)
			i = sc.pos - 1
			prev = 0
			continue
		case c == '\r':
			buf = append(buf, '\n')
		case c == '\n' && prev == '\r':
		default:
			buf = append(buf, c)
		}
		prev = c
	}
	sc.buf = buf
	sc.pos = i
	for rest := buf; len(rest) > 0; {
		r, size := utf8.DecodeRune(rest)
		if err := sc.checkRune(r, size); err != nil {
			return "", err
		}
		rest = rest[size:]
	}
	sc.pos = i + 1
	return string(buf), nil
}

// checkRune applies encoding/xml's test of one decoded rune: valid UTF-8
// and inside the Char production of XML 1.0 §2.2.
func (sc *xmlScanner) checkRune(r rune, size int) error {
	if r == utf8.RuneError && size == 1 {
		return sc.errorf("invalid UTF-8")
	}
	if r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF {
		return nil
	}
	return sc.errorf("illegal character code %U", r)
}

var xmlEntities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// reference expands the character or entity reference at sc.pos (an '&')
// and leaves sc.pos behind its ';'. Only the five predefined entities and
// numeric references exist. A number that is no Unicode scalar value
// becomes U+FFFD, as string(rune(n)) makes it; whether the rune is
// allowed in a document is the caller's check.
func (sc *xmlScanner) reference() (rune, error) {
	s, i := sc.s, sc.pos+1
	if i >= len(s) {
		return 0, sc.errEOF()
	}
	j := i
	if s[i] == '#' {
		j++
		base := 10
		if j < len(s) && s[j] == 'x' {
			base = 16
			j++
		}
		digits := j
		for j < len(s) && ('0' <= s[j] && s[j] <= '9' ||
			base == 16 && ('a' <= s[j] && s[j] <= 'f' || 'A' <= s[j] && s[j] <= 'F')) {
			j++
		}
		if j >= len(s) {
			return 0, sc.errEOF()
		}
		if s[j] == ';' {
			if n, err := strconv.ParseUint(s[digits:j], base, 64); err == nil && n <= unicode.MaxRune {
				sc.pos = j + 1
				if !utf8.ValidRune(rune(n)) {
					return utf8.RuneError, nil
				}
				return rune(n), nil
			}
			j++
		}
	} else {
		for j < len(s) && xmlClass[s[j]]&cName != 0 {
			j++
		}
		if j >= len(s) {
			return 0, sc.errEOF()
		}
		if s[j] == ';' {
			if r, ok := xmlEntities[s[i:j]]; ok {
				sc.pos = j + 1
				return r, nil
			}
			j++
		}
	}
	ent := s[sc.pos:j]
	if !strings.HasSuffix(ent, ";") {
		ent += " (no semicolon)"
	}
	return 0, sc.errorf("invalid character entity %s", ent)
}

// skipText checks the character data at sc.pos up to the next '<' or the
// end of input and drops it: references must expand, "]]>" must not
// appear, and every character must be legal.
func (sc *xmlScanner) skipText() error {
	s, i := sc.s, sc.pos
	for i < len(s) {
		c := s[i]
		if xmlClass[c]&cText == 0 {
			i++
			continue
		}
		sc.pos = i
		switch {
		case c == '<':
			return nil
		case c == ']':
			if strings.HasPrefix(s[i:], "]]>") {
				return sc.errorf("unescaped ]]> not in CDATA section")
			}
			i++
		case c == '&':
			r, err := sc.reference()
			if err == nil {
				err = sc.checkRune(r, utf8.RuneLen(r))
			}
			if err != nil {
				return err
			}
			i = sc.pos
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if err := sc.checkRune(r, size); err != nil {
				return err
			}
			i += size
		}
	}
	sc.pos = i
	return nil
}

// checkChars applies checkRune to every character of s[from:to].
func (sc *xmlScanner) checkChars(from, to int) error {
	s := sc.s
	for i := from; i < to; {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:to])
		sc.pos = i
		if err := sc.checkRune(r, size); err != nil {
			return err
		}
		i += size
	}
	return nil
}

// endTag scans </name> at sc.pos and closes the innermost open element,
// which must carry the same raw name.
func (sc *xmlScanner) endTag() error {
	s := sc.s
	sc.pos += 2
	raw, _, ok, err := sc.nsName()
	if !ok {
		if err == nil {
			err = sc.errorf("expected element name after </")
		}
		return err
	}
	sc.space()
	if sc.pos >= len(s) {
		return sc.errEOF()
	}
	if s[sc.pos] != '>' {
		return sc.errorf("invalid characters between </%s and >", raw)
	}
	sc.pos++
	n := len(sc.open)
	if n == 0 {
		return sc.errorf("unexpected end element </%s>", raw)
	}
	if sc.open[n-1] != raw {
		return sc.errorf("element <%s> closed by </%s>", sc.open[n-1], raw)
	}
	sc.open = sc.open[:n-1]
	return nil
}

// procInst skips <?target ...?> at sc.pos. An XML declaration — wherever
// it stands — may only announce version 1.0 and UTF-8: there is no
// charset reader behind this scanner.
func (sc *xmlScanner) procInst() error {
	s := sc.s
	sc.pos += 2
	target, _, ok, err := sc.name()
	if !ok {
		if err == nil {
			err = sc.errorf("expected target name after <?")
		}
		return err
	}
	sc.space()
	end := strings.Index(s[sc.pos:], "?>")
	if end < 0 {
		return sc.errEOF()
	}
	content := s[sc.pos : sc.pos+end]
	sc.pos += end + 2
	if target == "xml" {
		if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
			return fmt.Errorf("unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return fmt.Errorf("encoding %q declared but only UTF-8 is supported", enc)
		}
	}
	return nil
}

// procInstParam extracts param="value" from the content of an XML
// declaration with encoding/xml's own (admittedly loose) rule, so that
// the two agree on which declarations are refused.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang skips a comment, a CDATA section or a directive at sc.pos ("<!").
func (sc *xmlScanner) bang() error {
	s := sc.s
	i := sc.pos + 2
	if i >= len(s) {
		return sc.errEOF()
	}
	switch s[i] {
	case '-':
		if i+1 >= len(s) {
			return sc.errEOF()
		}
		if s[i+1] != '-' {
			return sc.errorf("invalid sequence <!- not part of <!--")
		}
		// The first "--" inside ends the comment and must be followed by '>'.
		dashes := strings.Index(s[i+2:], "--")
		if dashes < 0 || i+2+dashes+2 >= len(s) {
			return sc.errEOF()
		}
		sc.pos = i + 2 + dashes + 2
		if s[sc.pos] != '>' {
			return sc.errorf(`invalid sequence "--" not allowed in comments`)
		}
		sc.pos++
		return nil
	case '[':
		const open = "[CDATA["
		for k := 0; k < len(open); k++ {
			if i+k >= len(s) {
				return sc.errEOF()
			}
			if s[i+k] != open[k] {
				sc.pos = i + k
				return sc.errorf("invalid <![ sequence")
			}
		}
		from := i + len(open)
		end := strings.Index(s[from:], "]]>")
		if end < 0 {
			sc.pos = len(s)
			return sc.errorf("unexpected EOF in CDATA section")
		}
		if err := sc.checkChars(from, from+end); err != nil {
			return err
		}
		sc.pos = from + end + 3
		return nil
	}
	return sc.directive(i + 1)
}

// directive skips <!DOCTYPE ...>, <!ENTITY ...> and the like, from the
// byte after the one that followed "<!" (that byte is never examined).
// Angle brackets nest, quoted ones do not count, and a comment inside may
// hold anything up to its "-->".
func (sc *xmlScanner) directive(i int) error {
	s := sc.s
	var inquote byte
	depth := 0
	for ; ; i++ {
		if i >= len(s) {
			return sc.errEOF()
		}
		c := s[i]
		if inquote == 0 && c == '>' && depth == 0 {
			sc.pos = i + 1
			return nil
		}
	handle:
		switch {
		case c == inquote:
			inquote = 0
		case inquote != 0:
		case c == '\'' || c == '"':
			inquote = c
		case c == '>':
			depth--
		case c == '<':
			const comment = "!--"
			for k := 0; k < len(comment); k++ {
				i++
				if i >= len(s) {
					return sc.errEOF()
				}
				if s[i] != comment[k] {
					depth++
					c = s[i]
					goto handle
				}
			}
			end := strings.Index(s[i+1:], "-->")
			if end < 0 {
				return sc.errEOF()
			}
			i += end + 3
		}
	}
}
