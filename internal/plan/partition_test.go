package plan

import (
	"reflect"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/value"
)

// partitionElems spreads n elements over the given class names in turn,
// each class with its own instance name per element, plus one derived
// value with no provenance every tenth element.
func partitionElems(n int, classes ...string) []value.V {
	elems := make([]value.V, n)
	for i := range elems {
		if i%10 == 9 {
			elems[i] = value.Scalar("derived")
			continue
		}
		elems[i] = value.FromInstance(&config.Instance{
			Key: config.Key{Segs: []config.Seg{
				{Name: "Cluster", Inst: "c" + string(rune('a'+i%26)), Index: i},
				{Name: classes[i%len(classes)]},
			}},
			Value: "v",
		})
	}
	return elems
}

// PartitionByClass groups by class — the key's segment names, segment
// by segment, as the store tells classes apart — in order of first
// appearance, each group's indexes ascending. "a.b" then "c" and "a"
// then "b.c" join to one dotted path but are two classes.
func TestPartitionByClassGroups(t *testing.T) {
	elems := partitionElems(57, "Timeout", "Port", "Timeout.Extra")
	for i, names := range [][]string{{"a.b", "c"}, {"a", "b.c"}, {"a.b", "c"}} {
		segs := make([]config.Seg, len(names))
		for j, name := range names {
			segs[j] = config.Seg{Name: name}
		}
		elems = append(elems, value.FromInstance(&config.Instance{Key: config.Key{Segs: segs}, Value: string(rune('1' + i))}))
	}
	byClass := map[string][]int{}
	var order []string
	for i, v := range elems {
		id := ""
		if v.Inst != nil {
			for _, s := range v.Inst.Key.Segs {
				id += s.Name + "\x00"
			}
		}
		if _, ok := byClass[id]; !ok {
			order = append(order, id)
		}
		byClass[id] = append(byClass[id], i)
	}
	var want [][]int
	for _, id := range order {
		want = append(want, byClass[id])
	}
	if got := PartitionByClass(elems); !reflect.DeepEqual(got, want) {
		t.Fatalf("PartitionByClass = %v, want %v", got, want)
	}
	if got := PartitionByClass(nil); len(got) != 0 {
		t.Fatalf("PartitionByClass(nil) = %v, want no groups", got)
	}
}

// Grouping renders no string per element: 10,000 elements over three
// classes (and the derived values' partition) cost a fixed number of
// allocations plus one string per distinct class.
func TestPartitionByClassAllocs(t *testing.T) {
	elems := partitionElems(10000, "Timeout", "Port", "Retries")
	if got := len(PartitionByClass(elems)); got != 4 {
		t.Fatalf("%d partitions, want 4", got)
	}
	n := testing.AllocsPerRun(10, func() { PartitionByClass(elems) })
	if n > 16 {
		t.Errorf("PartitionByClass over 10,000 elements in 4 partitions: %v allocations, want at most 16", n)
	}
}
