package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzValidateEnvelope holds the server's one-copy envelope decode to the
// public wire type: a body decodes into wireRequest iff json.Unmarshal
// accepts it into ValidateRequest, and then names, formats, scopes,
// sources and payload bytes are equal.
func FuzzValidateEnvelope(f *testing.F) {
	for _, seed := range []string{
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want ValidateRequest
		wantErr := json.Unmarshal(body, &want)
		var got wireRequest
		gotErr := json.Unmarshal(body, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("verdicts differ on %q:\n wire:   %v\n public: %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if len(got.Payloads) != len(want.Payloads) || !reflect.DeepEqual(got.Sources, want.Sources) {
			t.Fatalf("shape differs on %q:\n wire:   %+v\n public: %+v", body, got, want)
		}
		for i, w := range want.Payloads {
			g := got.Payloads[i]
			if g.Name != w.Name || g.Format != w.Format || g.Scope != w.Scope || string(g.Data) != w.Data {
				t.Fatalf("payload %d differs on %q:\n wire:   %+v\n public: %+v", i, body, g, w)
			}
		}
	})
}
