package driver

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"confvalley/internal/config"
)

// jsonDriver handles JSON configuration documents. Objects become scopes,
// object members become child scopes or parameters, and arrays become
// indexed scope instances. A "Name" member inside an array element names
// the instance, mirroring the XML driver's convention. Scalar leaves become
// parameter values rendered back to their literal form.
type jsonDriver struct{}

func init() { Register(jsonDriver{}) }

func (jsonDriver) Name() string { return "json" }

func (jsonDriver) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	var root interface{}
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("json: %s: %w", sourceName, err)
	}
	var out []*config.Instance
	if err := walkJSON(root, nil, sourceName, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func walkJSON(v interface{}, stack []config.Seg, src string, out *[]*config.Instance) error {
	switch t := v.(type) {
	case map[string]interface{}:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if k == "" {
				return fmt.Errorf("json: %s: empty member name", src)
			}
			if err := config.CheckName(k); err != nil {
				return fmt.Errorf("json: %s: %w", src, err)
			}
			child := t[k]
			switch c := child.(type) {
			case map[string]interface{}:
				seg := config.Seg{Name: k}
				if name, ok := c["Name"].(string); ok {
					seg.Inst = name
				}
				if err := walkJSON(c, append(stack, seg), src, out); err != nil {
					return err
				}
			case []interface{}:
				for i, elem := range c {
					seg := config.Seg{Name: k, Index: i + 1}
					if m, ok := elem.(map[string]interface{}); ok {
						if name, ok := m["Name"].(string); ok {
							seg.Inst = name
						}
						if err := walkJSON(m, append(stack, seg), src, out); err != nil {
							return err
						}
						continue
					}
					// Array of scalars: each element is an instance of class k.
					key := config.Key{Segs: append(append([]config.Seg{}, stack...), seg)}
					*out = append(*out, &config.Instance{Key: key, Value: jsonScalar(elem), Source: src})
				}
			default:
				// A "Name" member also serves as the scope instance name
				// (handled by the parent), but remains queryable as a
				// regular parameter.
				key := config.Key{Segs: append(append([]config.Seg{}, stack...), config.Seg{Name: k})}
				*out = append(*out, &config.Instance{Key: key, Value: jsonScalar(child), Source: src})
			}
		}
		return nil
	case []interface{}:
		return fmt.Errorf("json: %s: top-level arrays must be wrapped in an object", src)
	default:
		return fmt.Errorf("json: %s: top-level value must be an object", src)
	}
}

// jsonScalar renders a JSON leaf in its configuration literal form.
func jsonScalar(v interface{}) string {
	switch t := v.(type) {
	case string:
		return t
	case float64:
		if t == float64(int64(t)) {
			return strconv.FormatInt(int64(t), 10)
		}
		return strconv.FormatFloat(t, 'g', -1, 64)
	case bool:
		if t {
			return "true"
		}
		return "false"
	case nil:
		return ""
	default:
		b, _ := json.Marshal(t)
		return string(b)
	}
}
