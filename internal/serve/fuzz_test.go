package serve

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzValidateEnvelope holds the server's one-pass envelope decoder to the
// public wire type: decodeEnvelope, its quotas off, accepts a body iff
// json.Unmarshal accepts it into ValidateRequest, and then names, formats,
// scopes, sources and payload bytes are equal. The decoder is also the
// only place the service enforces its two request quotas, so each body is
// decoded again with them set at and one below the count and the bytes
// json.Unmarshal decoded: whatever it then accepts is within both bounds
// and decodes as with quotas off, and it refuses only with a quota error
// (also a body within bounds, when a repeated member was over them before
// it shrank). The seeds run as plain tests under `go test`.
func FuzzValidateEnvelope(f *testing.F) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	seeds := []string{
		`{"payloads":[{"name":"a.xml","format":"xml","scope":"Fabric","data":"<a x=\"1\"/>\n"}]}`,
		`{"payloads":[{"name":"a","data":"tab\there \\ \/ \b\f\r \u003c\u00e9\u4e16 \ud83d\ude00"}],"sources":[{"name":"/etc/app.ini","format":"ini","scope":"S"}]}`,
		`{"payloads":[{"data":"\ud800"},{"data":"\udc00\ud800x"},{"data":"\ud83d\u0041"},{"data":"\ud83d\\ude00"},{"data":"\uD83D\uDE00"}]}`,
		"{\"payloads\":[{\"data\":\"bad utf8 \xff\xfe \xc3\\n \xe4\xb8\\u0041 \xf0\x9f\"}]}",
		`{"payloads":[{"name":"n","data":null},{"data":""},null,{}]}`,
		`{"payloads":[{"data":"first","data":"second"},{"data":"kept","data":null}]}`,
		`{"payloads":[{"data":"x"}],"payloads":[{"name":"second"}]}`,
		`{"payloads":[{"data":12}]}`, `{"payloads":[{"data":{"a":1}}]}`, `{"payloads":[{"data":["a"]}]}`, `{"payloads":[{"data":true}]}`,
		`{"payloads":[{"name":7,"data":"x"}]}`, `{"payloads":{"data":"x"}}`, `{"Payloads":[{"DATA":"case","Name":"N"}]}`,
		`{"payloads":[{"data":"unterminated`, `{"payloads":[{"data":"bad \x escape"}]}`, `{"payloads":[{"data":"\u12"}]}`, "{\"payloads\":[{\"data\":\"raw\nnewline\"}]}",
		`{}`, `null`, `[]`, `"string"`, ``, `{"payloads":null,"sources":null}`, `{"unknown":1,"payloads":[{"extra":[1,2],"data":"x"}]}`,

		// A member repeated: the second array is decoded into the first
		// one's elements, shrinking, growing and growing back over what a
		// shrink left behind.
		`{"payloads":[{"name":"a","data":"A"},{"name":"b","data":"B"},{"name":"c","scope":"C"}],"payloads":[{"format":"kv"}]}`,
		`{"payloads":[{"name":"a","data":"A"}],"payloads":[{"format":"kv"},{"name":"b"},{"data":"C"}]}`,
		`{"payloads":[{"name":"a","data":"A"},{"name":"b","data":"B"},{"name":"c"}],"payloads":[{"scope":"s"}],"payloads":[{},{"format":"f"},null,{"name":"d"},{"name":"e"}]}`,
		`{"sources":[{"name":"a","scope":"x"},{"name":"b"}],"sources":[],"sources":[{"format":"ini"},null]}`,
		`{"payloads":[{"name":"a"},{"name":"b"}],"payloads":null,"payloads":[{"data":"z"},{}]}`,
		`{"payloads":[{"data":"a"}],"sources":[{"name":"s"}],"PAYLOADS":[null,{"data":"b"}],"Sources":[{"scope":"t"}]}`,
		`{"payloads":[null,{"name":"a"},null,null,{"data":"b"},null],"sources":[null]}`,

		// Member names: exact, folded, escaped, and near misses.
		`{"PAYLOADS":[{"NAME":"n","Format":"f","sCoPe":"s","daTa":"d"}]}`,
		`{"ſources":[{"ſcope":"long s","name":"n"}],"payloadſ":[{"data":"x"}]}`,
		`{"payloads":[{"\u0064ata":"escaped key","\u006eame":"n","\u017fcope":"s"}]}`,
		`{"payloads":[{"data ":"no","dat":"no","datas":"no","d\u0000ata":"no","":"no","namé":"no"}]}`,
		"{\"payloads\":[{\"data\xff\":\"no\",\"\xffdata\":\"no\",\"data\":\"yes\"}]}",
		`{"payloads":[{"` + strings.Repeat("k", 70<<10) + `":1,"data":"after a long key","` + strings.Repeat(`\u0064`, 40) + `":2}]}`,
		`{"Kpayloads":1,"payloads\u212a":2,"payloads":[]}`,

		// Unknown members are skipped with the whole grammar checked.
		`{"x":{"a":[1,2,{"b":null}],"c":"s","d":true,"e":false},"payloads":[{"y":[[],{}],"data":"ok"}]}`,
		`{"x":-}`, `{"x":-0}`, `{"x":01}`, `{"x":1.}`, `{"x":.5}`, `{"x":1e}`, `{"x":1e+}`, `{"x":1E-2}`, `{"x":-0.0e+00}`, `{"x":12.50E7}`, `{"x":+1}`, `{"x":0x1}`, `{"x":1 2}`,
		`{"x":tru}`, `{"x":truex}`, `{"x":True}`, `{"x":nul}`, `{"x":falsey}`, `{"x":[1,]}`, `{"x":[,1]}`, `{"x":{"a":1,}}`, `{"x":{,}}`, `{"x":{"a"}}`, `{"x":{"a":}}`, `{"x":{a:1}}`, `{"x":[1 2]}`, `{"x"}`, `{"x":}`, `{,}`, `{"x":1,}`,
		`{"x":"\u0000 \" \\ \/ \b \f \n \r \t \u00e9 \uD83D\uDE00 \ud83d"}`, `{"x":"\a"}`, `{"x":"\u00g0"}`, `{"x":"\U0041"}`, `{"x":"\`, `{"x":"\u004`, `{"x":"`,
		"{\"x\":\"raw \x00 nul\"}", "{\"x\":\"raw \x1f unit separator\"}", "{\"x\":\"del \x7f is fine\"}", "{\"x\x01\":1}",
		`{"x":` + nest(maxNesting-1) + `}`, `{"x":` + nest(maxNesting) + `}`,
		`{"payloads":[{"x":` + nest(maxNesting-3) + `}]}`, `{"payloads":[{"x":` + nest(maxNesting-2) + `}]}`,
		`{"x":` + strings.Repeat(`{"a":`, maxNesting-1) + `1` + strings.Repeat(`}`, maxNesting-1) + `}`,
		`{"x":` + strings.Repeat(`{"a":`, maxNesting) + `1` + strings.Repeat(`}`, maxNesting) + `}`,
		nest(maxNesting), nest(maxNesting + 1),

		// Around the value: BOM, leading and trailing bytes.
		"\xef\xbb\xbf{}", " \t\r\n{} \t\r\n", `{}}`, `{}garbage`, `{} {}`, `{}` + "\x00", "\v{}", `nullx`, ` null `, `nul`,
		`[]`, `[{}]`, `"s"`, `1`, `true`, `false`, `-`, `{`, `}`, `]`, `:`, `,`,

		// Strings the envelope keeps: control bytes, every escape,
		// surrogates joined and split, malformed UTF-8.
		`{"payloads":[{"name":"nul \u0000 in a name","data":"nul \u0000 in data"}]}`,
		"{\"payloads\":[{\"name\":\"raw \x01 control\"}]}", "{\"payloads\":[{\"data\":\"raw \x1f control\"}]}", "{\"payloads\":[{\"data\":\"tab\tinside\"}]}",
		`{"payloads":[{"name":"\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \u4e16 \uFFFD","scope":"\u0022\u005c\u002F","data":"\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \u4e16 \uffFD"}]}`,
		"{\"payloads\":[{\"data\":\"\\ud83d\xed\xb8\x80\"},{\"data\":\"\xed\xa0\xbd\\ude00\"},{\"data\":\"\xed\xa0\xbd\xed\xb8\x80\"},{\"data\":\"\xf0\x9f\x98\x80\"}]}",
		`{"payloads":[{"data":"\ud83d\ud83d\ude00"},{"data":"\ude00\ud83d"},{"data":"\ud83d\u"},{"data":"\ud83d\ude0"},{"data":"\udbff\udfff\ud800\udc00"}]}`,
		"{\"payloads\":[{\"name\":\"\xc0\x80 \xe0\x80\x80 \xf4\x90\x80\x80 \x80 \xbf \xfe\xff\",\"data\":\"\xc2\",\"scope\":\"\xe2\x82\"}]}",
		`{"payloads":[{"name":"` + strings.Repeat("n", 70<<10) + `","format":"` + strings.Repeat(`\n`, 3000) + `","data":"x"}]}`,
		`{"payloads":[{"data":3.5}]}`, `{"payloads":[{"data":{}}]}`, `{"payloads":[{"data":[]}]}`, `{"payloads":[{"data":false}]}`,
		`{"payloads":[{"name":{}}]}`, `{"payloads":[{"scope":[]}]}`, `{"payloads":[{"format":true}]}`, `{"sources":[{"name":1}]}`, `{"sources":[1]}`, `{"sources":["s"]}`, `{"sources":[[]]}`, `{"sources":{}}`, `{"sources":"s"}`, `{"sources":1}`, `{"payloads":true}`,
		`{"payloads":[{"data":"x"}`, `{"payloads":[{"data":"x"}]`, `{"payloads":[{"data":"x"},]}`, `{"payloads":[{"data":"x",}]}`, `{"payloads":[{"data" "x"}]}`, `{"payloads":[{"data":"x"}{}]}`,
	}
	// Long strings, which unquote reads eight bytes at a time: every escape
	// and every byte that ends a plain run, at each offset in a word, in a
	// string that ends at each offset too, and one cut short.
	const mix = `abcdefgh\"ijklmnop\\q\nr\u003cs\u003E\u007ft\u0000\/u\tv\u0080w\u00e9x\ud83d\ude00yz0123456789` + "\xc3\xa9\x7f\xff~ " + `\u003` + "c" + `\b\f\r\u00FF`
	for off := 0; off < 8; off++ {
		pad := strings.Repeat("p", off)
		seeds = append(seeds,
			`{"payloads":[{"name":"`+pad+mix+`","data":"`+strings.Repeat(pad+mix, 3)+pad+`"}]}`,
			`{"payloads":[{"data":"`+pad+mix[:len(mix)-off*3]+`"},{"data":"`+mix+pad+`\u00"}]}`,
			"{\"payloads\":[{\"data\":\""+pad+"plain run then a raw control \x01 byte\"}]}")
	}
	for _, seed := range seeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want ValidateRequest
		wantErr := json.Unmarshal(body, &want)
		payloads, sources, _, gotErr := decodeEnvelope(body, math.MaxInt, math.MaxInt64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("verdicts differ on %.200q:\n decoder:       %v\n encoding/json: %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if len(payloads) != len(want.Payloads) || (payloads == nil) != (want.Payloads == nil) || !reflect.DeepEqual(sources, want.Sources) {
			t.Fatalf("shape differs on %.200q:\n decoder:       %+v %+v\n encoding/json: %+v", body, payloads, sources, want)
		}
		for i, w := range want.Payloads {
			g := payloads[i]
			if g.Name != w.Name || g.Format != w.Format || g.Scope != w.Scope || string(g.Data) != w.Data {
				t.Fatalf("payload %d differs on %.200q:\n decoder:       %+v\n encoding/json: %+v", i, body, g, w)
			}
		}

		n, size := len(want.Payloads)+len(want.Sources), int64(0)
		for _, w := range want.Payloads {
			size += int64(len(w.Data))
		}
		for _, q := range []struct {
			sources int
			bytes   int64
		}{{n, size}, {max(n-1, 0), size}, {n, max(size-1, 0)}} {
			qp, qs, _, err := decodeEnvelope(body, q.sources, q.bytes)
			if err != nil {
				if !errors.Is(err, ErrQuota) && !errors.Is(err, ErrTooLarge) {
					t.Fatalf("quotas %d sources, %d bytes on %.200q: %v, where quotas off accept", q.sources, q.bytes, body, err)
				}
				continue
			}
			if n > q.sources || size > q.bytes {
				t.Fatalf("quotas %d sources, %d bytes accept %.200q: %d sources, %d bytes", q.sources, q.bytes, body, n, size)
			}
			if !reflect.DeepEqual(qp, payloads) || !reflect.DeepEqual(qs, sources) {
				t.Fatalf("quotas %d sources, %d bytes change the decoding of %.200q", q.sources, q.bytes, body)
			}
		}
	})
}
