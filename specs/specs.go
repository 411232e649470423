// Package specs ships the CPL specification suites used throughout the
// evaluation — the declarative rewrites of the imperative validation
// modules in internal/legacy (Tables 3 and 4 of the paper) — together
// with the sample configuration data the open-source suites validate.
package specs

import (
	"embed"
	"strings"
)

//go:embed *.cpl *.yaml *.json
var files embed.FS

// mustRead returns an embedded file's contents.
func mustRead(name string) string {
	b, err := files.ReadFile(name)
	if err != nil {
		panic("specs: missing embedded file " + name + ": " + err.Error())
	}
	return string(b)
}

// AzureTypeA returns the 17-specification expert suite for the Type A
// cluster substrate (the Table 3 "Type A" rewrite and the Table 6 expert
// specifications).
func AzureTypeA() string { return mustRead("azure_type_a.cpl") }

// AzureTypeB returns the 62-specification suite for the Type B per-node
// data (the Table 3 "Type B" rewrite).
func AzureTypeB() string { return mustRead("azure_type_b.cpl") }

// AzureTypeC returns the 6-specification suite for the Type C service
// settings (the Table 3 "Type C" rewrite).
func AzureTypeC() string { return mustRead("azure_type_c.cpl") }

// OpenStack returns the 19-specification suite rewritten from Rubick-style
// checks (Table 4).
func OpenStack() string { return mustRead("openstack.cpl") }

// CloudStack returns the 15-specification suite rewritten from
// CloudStack's scattered imperative checks (Table 4).
func CloudStack() string { return mustRead("cloudstack.cpl") }

// OpenStackConfig returns the sample OpenStack YAML configuration.
func OpenStackConfig() []byte { return []byte(mustRead("openstack.yaml")) }

// CloudStackConfig returns the sample CloudStack JSON configuration.
func CloudStackConfig() []byte { return []byte(mustRead("cloudstack.json")) }

// CountLoC counts non-blank, non-comment lines of CPL source.
func CountLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		n++
	}
	return n
}
