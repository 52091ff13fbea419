package paco

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// numberToken matches a number as the report prints it: digits with any
// decimal part or pair ratio ("0.0832", "12/16"). Signs and percent
// marks are not part of it, so "+1.0%" in the docs matches "+1.0%" or
// "1.0" in the report.
var numberToken = regexp.MustCompile(`\d+(?:[./]\d+)*`)

// TestMeasuredVsPaperMatchesRecord checks that every number the
// full-scale column of EXPERIMENTS.md's "Measured vs paper" table
// quotes appears in the committed full-scale report, so a change that
// moves the numbers and regenerates testdata/repro_full.txt cannot
// leave the table quoting the old ones.
func TestMeasuredVsPaperMatchesRecord(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	record, err := os.ReadFile("testdata/repro_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	inRecord := map[string]bool{}
	for _, tok := range numberToken.FindAllString(string(record), -1) {
		inRecord[tok] = true
	}

	_, section, ok := strings.Cut(string(doc), "\n## Measured vs paper\n")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Measured vs paper" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	col, rows := -1, 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case col < 0:
			for i, c := range cells {
				if c == "full scale" {
					col = i
				}
			}
			if col < 0 {
				t.Fatalf("table header %q has no \"full scale\" column", line)
			}
		case strings.HasPrefix(cells[0], "---"):
		case col >= len(cells):
			t.Errorf("row %q has no full-scale cell", line)
		default:
			rows++
			nums := numberToken.FindAllString(cells[col], -1)
			if len(nums) == 0 {
				t.Errorf("%s: the full-scale cell %q quotes no number", cells[0], cells[col])
			}
			for _, n := range nums {
				if !inRecord[n] {
					t.Errorf("%s: full-scale %s is not in testdata/repro_full.txt", cells[0], n)
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal(`the "Measured vs paper" section has no table rows`)
	}
}
