package serve

import (
	"errors"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// wireRequest is ValidateRequest as the server decodes it: the same JSON
// shape, but a payload's data is unquoted straight into the bytes the
// runner parses, with no string in between. FuzzValidateEnvelope holds the
// two decodings to the same verdict and the same bytes on every body.
type wireRequest struct {
	Payloads []wirePayload `json:"payloads"`
	Sources  []SourceRef   `json:"sources"`
}

type wirePayload struct {
	Name   string      `json:"name"`
	Format string      `json:"format"`
	Scope  string      `json:"scope"`
	Data   payloadData `json:"data"`
}

// payloadData is a JSON string decoded to bytes in one copy.
type payloadData []byte

var errDataNotString = errors.New("payload data must be a JSON string")

// UnmarshalJSON receives the value's literal exactly as it stands in the
// request body, already checked by the JSON scanner. It decodes it the way
// encoding/json decodes a string: escapes expanded, a surrogate pair
// joined, a lone surrogate and every byte of malformed UTF-8 replaced by
// U+FFFD, null leaving the value as it was.
func (d *payloadData) UnmarshalJSON(lit []byte) error {
	if string(lit) == "null" {
		return nil
	}
	if len(lit) < 2 || lit[0] != '"' || lit[len(lit)-1] != '"' {
		return errDataNotString
	}
	s := lit[1 : len(lit)-1]
	out := make([]byte, 0, len(s))
	for len(s) > 0 {
		// Escapes come every few bytes in an escaped document, so the run
		// of plain ASCII up to the next one is scanned here, not searched.
		n := 0
		for n < len(s) && s[n] != '\\' && s[n] < utf8.RuneSelf {
			n++
		}
		out = append(out, s[:n]...)
		if n < len(s) && s[n] >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(s[n:])
			out = utf8.AppendRune(out, r)
			s = s[n+size:]
			continue
		}
		s = s[n:]
		if len(s) == 0 {
			break
		}
		if len(s) < 2 {
			return errDataNotString
		}
		c := s[1]
		switch c {
		case '"', '\\', '/':
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			r := hex4(s[2:])
			if r < 0 {
				return errDataNotString
			}
			s = s[6:]
			if utf16.IsSurrogate(r) {
				// Only a low half in the very next escape completes a pair;
				// otherwise this half alone is replaced and nothing more
				// is consumed.
				r2 := rune(-1)
				if len(s) >= 2 && s[0] == '\\' && s[1] == 'u' {
					r2 = hex4(s[2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					s = s[6:]
				}
			}
			out = utf8.AppendRune(out, r)
			continue
		default:
			return errDataNotString
		}
		out = append(out, c)
		s = s[2:]
	}
	*d = out
	return nil
}

// hex4 decodes four hexadecimal digits at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	n, err := strconv.ParseUint(string(s[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}
