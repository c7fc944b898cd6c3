package tam

import (
	"fmt"
	"strings"
)

// CSV renders the schedule as CSV with one row per placement: job,
// group, width, wire_lo, start, end. Rows are ordered by start time,
// then wire, for stable diffs. The header row is always written.
func (s *Schedule) CSV() string {
	var sb strings.Builder
	sb.WriteString("job,group,width,wire_lo,start,end\n")
	rows := append([]Placement(nil), s.Placements...)
	// Order: start, wire, ID.
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			a, b := &rows[i], &rows[j]
			if b.Start < a.Start ||
				(b.Start == a.Start && b.WireLo < a.WireLo) ||
				(b.Start == a.Start && b.WireLo == a.WireLo && b.Job.ID < a.Job.ID) {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	for i := range rows {
		p := &rows[i]
		fmt.Fprintf(&sb, "%s,%s,%d,%d,%d,%d\n",
			csvEscape(p.Job.ID), csvEscape(p.Job.Group), p.Width, p.WireLo, p.Start, p.End)
	}
	return sb.String()
}

// csvEscape quotes fields containing commas or quotes (job IDs may
// contain slashes and test names).
func csvEscape(f string) string {
	if !strings.ContainsAny(f, ",\"\n") {
		return f
	}
	return `"` + strings.ReplaceAll(f, `"`, `""`) + `"`
}
