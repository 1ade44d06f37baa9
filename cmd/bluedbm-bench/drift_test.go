package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// driftShown is how many moved fields a drift report lists.
const driftShown = 30

// requireSame fails the test unless a fresh regeneration equals the
// committed file. A JSON artifact's failure lists every moved field
// (jsonDrift); any other file's, every moved line (textDrift).
func requireSame(t *testing.T, committed string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	report, ok := jsonDrift(want, got, driftShown)
	if !ok {
		report = textDrift(want, got, driftShown)
	}
	t.Fatalf("%s drifted from a fresh regeneration (committed → regenerated):\n%s", committed, report)
}

// textDrift lists each line whose text moved as "line N: old → new",
// a line only one side has as "(absent)", at most limit of them, then
// the total count.
func textDrift(old, new []byte, limit int) string {
	ol, nl := strings.Split(string(old), "\n"), strings.Split(string(new), "\n")
	line := func(l []string, i int) string {
		if i < len(l) {
			return l[i]
		}
		return "(absent)"
	}
	var lines []string
	total := 0
	for i := range max(len(ol), len(nl)) {
		a, b := line(ol, i), line(nl, i)
		if a == b {
			continue
		}
		total++
		if total <= limit {
			lines = append(lines, fmt.Sprintf("  line %d: %s → %s", i+1, a, b))
		}
	}
	return fmt.Sprintf("%s\n  %d lines moved (%d shown)", strings.Join(lines, "\n"), total, len(lines))
}

// jsonDrift decodes two JSON documents and lists each field whose
// value moved as "path: old → new", map keys in sorted order, array
// elements by index, at most limit of them, then the total count. ok
// is false when either side is not JSON or no field moved.
func jsonDrift(old, new []byte, limit int) (report string, ok bool) {
	var o, n any
	if decodeJSON(old, &o) != nil || decodeJSON(new, &n) != nil {
		return "", false
	}
	var lines []string
	total := 0
	diffJSON("", o, n, func(path string, a, b any) {
		total++
		if total <= limit {
			lines = append(lines, fmt.Sprintf("  %s: %s → %s", path, jsonText(a), jsonText(b)))
		}
	})
	if total == 0 {
		return "", false
	}
	return fmt.Sprintf("%s\n  %d fields moved (%d shown)", strings.Join(lines, "\n"), total, len(lines)), true
}

// decodeJSON decodes b keeping each number's text.
func decodeJSON(b []byte, v *any) error {
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	return d.Decode(v)
}

// absent stands for a field one side does not have.
type absent struct{}

// diffJSON calls moved for every leaf (or whole subtree of a different
// shape) under path that differs between a and b.
func diffJSON(path string, a, b any, moved func(path string, a, b any)) {
	switch am := a.(type) {
	case map[string]any:
		if bm, ok := b.(map[string]any); ok {
			keys := make([]string, 0, len(am)+len(bm))
			for k := range am {
				keys = append(keys, k)
			}
			for k := range bm {
				if _, ok := am[k]; !ok {
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			for _, k := range keys {
				sub := k
				if path != "" {
					sub = path + "." + k
				}
				diffJSON(sub, field(am, k), field(bm, k), moved)
			}
			return
		}
	case []any:
		if bl, ok := b.([]any); ok {
			for i := 0; i < max(len(am), len(bl)); i++ {
				diffJSON(fmt.Sprintf("%s[%d]", path, i), elem(am, i), elem(bl, i), moved)
			}
			return
		}
	}
	if jsonText(a) != jsonText(b) {
		moved(path, a, b)
	}
}

func field(m map[string]any, k string) any {
	if v, ok := m[k]; ok {
		return v
	}
	return absent{}
}

func elem(l []any, i int) any {
	if i < len(l) {
		return l[i]
	}
	return absent{}
}

// jsonText is v as compact JSON, numbers as their file text.
func jsonText(v any) string {
	if _, ok := v.(absent); ok {
		return "(absent)"
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

// TestJSONDriftNamesEveryMovedField: a drift report names each moved
// field by path, in sorted key order with array elements by index,
// including fields only one side has, caps the list and counts them
// all; a file that is not JSON, or differs only in layout, gets no
// report.
func TestJSONDriftNamesEveryMovedField(t *testing.T) {
	old := []byte(`{"b": {"y": "s", "x": [1, 2, 3]}, "a": 1.50, "c": true, "gone": 1}`)
	new := []byte(`{"a": 1.50, "b": {"x": [1, 5, 3, 4], "y": "t"}, "c": true, "new": {"k": null}}`)
	report, ok := jsonDrift(old, new, 30)
	want := strings.Join([]string{
		`  b.x[1]: 2 → 5`,
		`  b.x[3]: (absent) → 4`,
		`  b.y: "s" → "t"`,
		`  gone: 1 → (absent)`,
		`  new: (absent) → {"k":null}`,
		`  5 fields moved (5 shown)`,
	}, "\n")
	if !ok || report != want {
		t.Fatalf("report (ok %v):\n%s\nwant:\n%s", ok, report, want)
	}
	report, _ = jsonDrift(old, new, 2)
	if lines := strings.Split(report, "\n"); len(lines) != 3 || lines[2] != "  5 fields moved (2 shown)" {
		t.Fatalf("capped report:\n%s", report)
	}
	if _, ok := jsonDrift([]byte("fig 12: 1.0\n"), []byte("fig 12: 1.1\n"), 30); ok {
		t.Fatal("a text file got a JSON drift report")
	}
	if _, ok := jsonDrift([]byte(`{"a": [1, 2]}`), []byte("{\n  \"a\": [\n    1,\n    2\n  ]\n}\n"), 30); ok {
		t.Fatal("a layout-only change got a JSON drift report")
	}
}

// TestTextDriftNamesEveryMovedLine: a text golden's drift report names
// each moved line by number, old and new text, including lines only
// one side has, caps the list and counts them all.
func TestTextDriftNamesEveryMovedLine(t *testing.T) {
	old := []byte("fig 16\n1 Node 263\nThrottled 73\nfig 21\nFlash/ISP 1041\n")
	new := []byte("fig 16\n1 Node 259\nThrottled 73\nfig 21\nFlash/ISP 1070\nextra\n")
	want := strings.Join([]string{
		`  line 2: 1 Node 263 → 1 Node 259`,
		`  line 5: Flash/ISP 1041 → Flash/ISP 1070`,
		`  line 6:  → extra`,
		`  line 7: (absent) → `,
		`  4 lines moved (4 shown)`,
	}, "\n")
	if report := textDrift(old, new, 30); report != want {
		t.Fatalf("report:\n%s\nwant:\n%s", report, want)
	}
	if lines := strings.Split(textDrift(old, new, 1), "\n"); len(lines) != 2 || lines[1] != "  4 lines moved (1 shown)" {
		t.Fatalf("capped report:\n%s", strings.Join(lines, "\n"))
	}
}
