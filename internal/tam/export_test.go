package tam

import (
	"strings"
	"testing"
)

func TestScheduleCSV(t *testing.T) {
	jobs := []*Job{
		fixedJob("b", 2, 10),
		groupJob("a,weird\"name", "g", 1, 5),
		groupJob("c", "g", 1, 5),
	}
	s, err := optimize(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	csv := s.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "job,group,width,wire_lo,start,end" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4 (header + 3)", len(lines))
	}
	// Escaping: the weird job ID must be quoted with doubled quotes.
	if !strings.Contains(csv, `"a,weird""name"`) {
		t.Errorf("CSV escaping broken:\n%s", csv)
	}
	// Round-trip sanity: every job appears exactly once.
	for _, id := range []string{"b", "c"} {
		if strings.Count(csv, "\n"+id+",") != 1 {
			t.Errorf("job %s not exactly once:\n%s", id, csv)
		}
	}
}
