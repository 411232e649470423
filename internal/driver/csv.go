package driver

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"

	"confvalley/internal/config"
)

// csvDriver handles tabular configuration exports: the first row names the
// columns, each subsequent row is one scope instance of class "Row" (or of
// the class named by a leading "#class NAME" comment line), and each cell
// becomes a parameter. A column literally named "Name" names the row
// instance.
type csvDriver struct{}

func init() { Register(csvDriver{}) }

func (csvDriver) Name() string { return "csv" }

func (csvDriver) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	class := "Row"
	if bytes.HasPrefix(data, []byte("#class ")) {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			nl = len(data)
		}
		class = strings.TrimSpace(string(data[len("#class "):nl]))
		if nl < len(data) {
			data = data[nl+1:]
		} else {
			data = nil
		}
	}
	r := csv.NewReader(bytes.NewReader(data))
	r.TrimLeadingSpace = true
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv: %s: %w", sourceName, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("csv: %s: missing header row", sourceName)
	}
	header := rows[0]
	nameCol := -1
	for i, h := range header {
		if h == "Name" {
			nameCol = i
		}
		if err := config.CheckName(h); err != nil {
			return nil, fmt.Errorf("csv: %s: %w", sourceName, err)
		}
	}
	if err := config.CheckName(class); err != nil {
		return nil, fmt.Errorf("csv: %s: %w", sourceName, err)
	}
	var out []*config.Instance
	for ri, row := range rows[1:] {
		seg := config.Seg{Name: class, Index: ri + 1}
		if nameCol >= 0 && nameCol < len(row) {
			seg.Inst = row[nameCol]
		}
		for ci, cell := range row {
			if ci == nameCol || ci >= len(header) {
				continue
			}
			key := config.Key{Segs: []config.Seg{seg, {Name: header[ci]}}}
			out = append(out, &config.Instance{Key: key, Value: cell, Source: sourceName, Line: ri + 2})
		}
	}
	return out, nil
}
