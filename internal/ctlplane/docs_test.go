package ctlplane

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDesignMethodTable holds DESIGN.md §11's method table to the verb
// table: the same verb names, and in each row's first {...} exactly that
// verb's parameter names in declaration order, "?" on the optional ones.
// A row may name several verbs ("a / b") when they take the same
// parameters.
func TestDesignMethodTable(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(raw), "\n## 11. ")
	if !found {
		t.Fatal("DESIGN.md has no section 11")
	}
	_, table, found := strings.Cut(section, "\n| method | params → result | semantics |\n|---|---|---|\n")
	if !found {
		t.Fatal("DESIGN.md §11 has no method table")
	}
	table, _, _ = strings.Cut(table, "\n\n")

	want := map[string]string{}
	for _, v := range Verbs() {
		names := make([]string, len(v.Params))
		for i, p := range v.Params {
			names[i] = p.Name
			if !p.Required {
				names[i] += "?"
			}
		}
		want[v.Name] = "{" + strings.Join(names, ", ") + "}"
	}

	verbName := regexp.MustCompile("`([a-z]+\\.[a-z]+)`")
	braces := regexp.MustCompile(`\{[^}]*\}`)
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed row %q", row)
		}
		names := verbName.FindAllStringSubmatch(cells[1], -1)
		if len(names) == 0 {
			t.Errorf("row names no verb: %q", row)
		}
		for _, m := range names {
			params, ok := want[m[1]]
			if !ok {
				t.Errorf("DESIGN.md documents %s, which is not (or twice) in the verb table", m[1])
				continue
			}
			delete(want, m[1])
			if got := braces.FindString(cells[2]); got != params {
				t.Errorf("%s: DESIGN.md says %s, the verb table says %s", m[1], got, params)
			}
		}
	}
	for name := range want {
		t.Errorf("%s is in the verb table but not in DESIGN.md §11", name)
	}
}
