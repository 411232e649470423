package driver

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"confvalley/internal/config"
)

// Documents for the ownership tests: values that can be borrowed as they
// stand and values the XML scanner has to rewrite (an entity, a CRLF).
var ownershipDocs = []struct {
	format, doc string
	want        []string
}{
	{"xml", `<Cloud Name="East1" Region="us&amp;east"><Tenant Type="Frontend"><Setting Key="Instances" Value="12"/></Tenant>` +
		"<Setting Key=\"Note\" Value=\"line\r\nbreak\"/></Cloud>", []string{
		`Cloud::East1[1].Region = "us&east" @own:0`,
		`Cloud::East1[1].Tenant::Frontend[1].Instances = "12" @own:0`,
		`Cloud::East1[1].Note = "line\nbreak" @own:0`,
	}},
	{"kv", "# c\nCluster::c1.Node::n3[2].Timeout = 30\r\n\n  a.b =  spaced value  \n", []string{
		`Cluster::c1.Node::n3[2].Timeout = "30" @own:2`,
		`a.b = "spaced value" @own:4`,
	}},
}

func renderInstances(ins []*config.Instance) []string {
	var out []string
	for _, in := range ins {
		out = append(out, in.String()+" @"+in.Source+":"+strconv.Itoa(in.Line))
	}
	return out
}

// ownedInstances is ParsePartition's instances, in document order.
func ownedInstances(ctx context.Context, format string, data []byte, sourceName, scope string, proj *Projection) ([]*config.Instance, int, error) {
	part, parsed, err := ParsePartition(ctx, format, data, sourceName, scope, proj)
	if err != nil {
		return nil, 0, err
	}
	return part.Instances(), parsed, nil
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 'X'
	}
}

// The copying entries leave the caller's buffer as they found it and keep
// no reference into it: the caller may reuse it at once.
func TestParseDoesNotAliasInput(t *testing.T) {
	for _, tc := range ownershipDocs {
		d, err := Lookup(tc.format)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func([]byte) ([]*config.Instance, error){
			"Parse": func(data []byte) ([]*config.Instance, error) { return d.Parse(data, "own") },
			"ParseScoped": func(data []byte) ([]*config.Instance, error) {
				return ParseScoped(context.Background(), tc.format, data, "own", "")
			},
		}
		for name, parse := range entries {
			data := []byte(tc.doc)
			ins, err := parse(data)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.format, name, err)
			}
			if string(data) != tc.doc {
				t.Errorf("%s %s changed the caller's buffer", tc.format, name)
			}
			scribble(data)
			if got := renderInstances(ins); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s %s: after the caller's buffer was overwritten:\n got %q\nwant %q", tc.format, name, got, tc.want)
			}
		}
	}
}

// The owned entries only read the buffer they are handed and return what
// the copying entries return, and they do borrow: ParsePartition
// reaches ParseOwned, whose instances point into the document (shown the
// only way a test can without unsafe, by breaking the rule and writing to
// it). A driver with no owned entry copies either way.
func TestParseOwnedBorrowsInput(t *testing.T) {
	for _, tc := range ownershipDocs {
		data := []byte(tc.doc)
		ins, _, err := ownedInstances(context.Background(), tc.format, data, "own", "", nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		if string(data) != tc.doc {
			t.Errorf("%s: ParsePartition wrote to the buffer it was handed", tc.format)
		}
		if got := renderInstances(ins); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.format, got, tc.want)
		}
		scribble(data)
		if got := renderInstances(ins); reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: instances survived the document being overwritten: ParsePartition copied it", tc.format)
		}
	}
	data := []byte(`{"app": {"timeout": "30"}}`)
	ins, _, err := ownedInstances(context.Background(), "json", data, "own", "", nil)
	if err != nil || len(ins) != 1 {
		t.Fatalf("json: %d instances, err %v", len(ins), err)
	}
	want := renderInstances(ins)
	scribble(data)
	if got := renderInstances(ins); !reflect.DeepEqual(got, want) {
		t.Errorf("json: got %q, want %q", got, want)
	}
}
