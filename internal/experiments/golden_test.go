package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

// The model-clock tables, frozen. Every table whose cells come from the
// device model alone (E1–E18, E23 and A1–A11; E18 at the {1, 4} sweep its
// shape test runs) is rendered into testdata/model_tables.golden, and the
// test that computes a table for its bands checks the same result against
// its section here, so a table is computed once and pinned twice: the
// paper's band by its shape test, every cell by this file. Cycle constants
// of pipeline.Config that move no rendered cell are pinned by
// internal/nx's TestModelGolden instead. Regenerate with
//
//	go test ./internal/experiments -update
//
// only in a change that means to move the model, and restate the moved
// cells old -> new.

var updateGolden = flag.Bool("update", false, "rewrite testdata/model_tables.golden from the current code")

const goldenPath = "testdata/model_tables.golden"

// readGolden splits the golden file into its rendered tables, keyed by
// table ID, plus the IDs in file order. Render opens every table with a
// blank line and no table holds one, so a blank line separates sections.
func readGolden(t *testing.T) (ids []string, sections map[string]string) {
	t.Helper()
	sections = map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *updateGolden {
		return nil, sections
	}
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(string(data), "\n"), "\n")
	for _, part := range strings.Split(body, "\n\n") {
		id, _, ok := strings.Cut(part, " — ")
		if !ok {
			t.Fatalf("%s: section without a title line:\n%s", goldenPath, part)
		}
		ids = append(ids, id)
		sections[id] = "\n" + part + "\n"
	}
	return ids, sections
}

// pinned computes registry entry id once, checks it against the golden
// file and hands it back for the bands.
func pinned(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	return golden(t, e.Run())
}

// golden checks tab's rendering against its golden section, or rewrites
// that section under -update, keeping the sections in registry order.
func golden(t *testing.T, tab *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	tab.Render(&buf)
	got := buf.String()
	_, sections := readGolden(t)
	if *updateGolden {
		sections[tab.ID] = got
		var out strings.Builder
		for _, e := range Registry {
			out.WriteString(sections[e.ID])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	want, ok := sections[tab.ID]
	if !ok {
		t.Fatalf("%s has no %s section; run with -update to add it", goldenPath, tab.ID)
	}
	if got != want {
		t.Errorf("%s differs from %s (rerun with -update only if the model is meant to move)\n--- golden%s--- now%s",
			tab.ID, goldenPath, want, got)
	}
	return tab
}

// TestGoldenCoversModelTables: the golden file holds exactly the
// registry's model-clock tables, in registry order, so a table cannot
// leave the pin unnoticed.
func TestGoldenCoversModelTables(t *testing.T) {
	if *updateGolden {
		t.Skip("the file is being rewritten")
	}
	ids, _ := readGolden(t)
	var want []string
	for _, e := range Registry {
		if e.Clock == Model {
			want = append(want, e.ID)
		}
	}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("golden sections %v, want %v", ids, want)
	}
}
