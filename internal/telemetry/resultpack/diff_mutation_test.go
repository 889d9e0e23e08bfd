package resultpack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The mutation test edits a pack's JSON document, never its Go value, so
// it shares no code with Diff: each in-scope leaf is changed in turn (and
// each map entry, keyed element and composite member deleted), the edited
// document is decoded into a Pack, and Diff must report the edit at the
// leaf's own path, in both directions.

// outOfScope holds the top-level members Diff does not judge.
var outOfScope = map[string]bool{"env": true, "created_unix_ms": true, "manifest": true, "schema": true, "version": true}

// mapMembers are the members that decode into Go maps: their entries may
// be absent on one side, which Diff reports as presence.
var mapMembers = map[string]bool{"measures": true, "privacy": true}

// keyFields are the members that identify an element of a keyed section.
var keyFields = map[string]bool{"k": true, "algorithm": true, "id": true, "role": true, "left": true, "right": true}

// elemKey spells an element's identity the way divergence paths do.
func elemKey(section string, e map[string]any) string {
	str := func(name string) string { s, _ := e[name].(string); return s }
	switch section {
	case "algorithms", "attack":
		k := "0"
		if n, ok := e["k"].(json.Number); ok {
			k = n.String()
		}
		return "k=" + k + "/" + str("algorithm")
	case "tables":
		return str("id")
	case "files":
		return str("role")
	case "comparisons":
		return str("left") + " vs " + str("right")
	}
	panic("no key for section " + section)
}

// want is one divergence an edit must produce, seen from the original
// document as the recorded side. An empty rec or rep accepts any value,
// and "(present)" any value but "(absent)".
type want struct{ path, rec, rep string }

type edit struct {
	// orig and doc are the scope the edit changes: one top-level member,
	// or one element of a keyed section, decoded alone so the test stays
	// fast; orig is doc decoded before any edit.
	orig  *Pack
	doc   map[string]any
	apply func() (undo func())
	// wants lists the exact divergences; when prefix is set, the edit
	// must instead produce at least one divergence, all under prefix.
	wants  []want
	prefix string
}

type editor struct {
	t     *testing.T
	orig  *Pack
	doc   map[string]any
	edits []edit
}

func (ed *editor) add(wants []want, prefix string, apply func() func()) {
	ed.edits = append(ed.edits, edit{orig: ed.orig, doc: ed.doc, apply: apply, wants: wants, prefix: prefix})
}

// scope makes doc the document the following edits change.
func (ed *editor) scope(doc map[string]any) (restore func()) {
	orig, saved := ed.orig, ed.doc
	ed.orig, ed.doc = decodePack(ed.t, doc), doc
	return func() { ed.orig, ed.doc = orig, saved }
}

// changed returns a visibly different JSON value of the same kind; a
// pinned Float spelling ("NaN", "+Inf", "-Inf") becomes a finite number.
func changed(v any) any {
	switch x := v.(type) {
	case json.Number:
		f, err := strconv.ParseFloat(x.String(), 64)
		if err != nil {
			panic(err)
		}
		return json.Number(strconv.FormatFloat(f+1, 'g', -1, 64))
	case string:
		if x == "NaN" || x == "+Inf" || x == "-Inf" {
			return json.Number("1.5")
		}
		return x + "x"
	case bool:
		return !x
	}
	panic(fmt.Sprintf("unexpected leaf %T", v))
}

func sortedMembers(obj map[string]any) []string {
	names := make([]string, 0, len(obj))
	for name := range obj {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// object enumerates the edits of every member of obj at path. elem is
// the keyed element obj belongs to (section names its array), if any.
func (ed *editor) object(path string, obj map[string]any, isMap bool, section string, elem map[string]any) {
	for _, name := range sortedMembers(obj) {
		ed.member(path, obj, name, isMap, section, elem)
	}
}

func (ed *editor) member(path string, obj map[string]any, name string, isMap bool, section string, elem map[string]any) {
	p := path + "." + name
	if path == "" {
		p = name
	}
	v := obj[name]
	switch x := v.(type) {
	case map[string]any:
		ed.object(p, x, mapMembers[name], "", nil)
		ed.add(nil, p, func() func() { delete(obj, name); return func() { obj[name] = x } })
		return
	case []any:
		ed.array(p, name, obj, x)
		ed.add(nil, p, func() func() { delete(obj, name); return func() { obj[name] = x } })
		return
	}
	set := func() func() { obj[name] = changed(v); return func() { obj[name] = v } }
	if elem != nil && keyFields[name] {
		base := strings.TrimSuffix(path, "["+elemKey(section, elem)+"]")
		undo := set()
		moved := base + "[" + elemKey(section, elem) + "]"
		undo()
		ed.add([]want{{path, "(present)", "(absent)"}, {moved, "(absent)", "(present)"}}, "", set)
	} else {
		ed.add([]want{{path: p}}, "", set)
	}
	if isMap {
		ed.add([]want{{p, "(present)", "(absent)"}}, "", func() func() { delete(obj, name); return func() { obj[name] = v } })
	}
}

// array enumerates the edits of obj[name]: a keyed section's elements are
// walked and deleted one by one; a scalar list diverges as a whole.
func (ed *editor) array(path, name string, obj map[string]any, list []any) {
	without := func(i int) func() func() {
		return func() func() {
			obj[name] = append(append([]any{}, list[:i]...), list[i+1:]...)
			return func() { obj[name] = list }
		}
	}
	for i, v := range list {
		i, v := i, v
		if e, ok := v.(map[string]any); ok {
			p := path + "[" + elemKey(name, e) + "]"
			restore := ed.scope(map[string]any{name: []any{e}})
			ed.object(p, e, false, name, e)
			restore()
			ed.add([]want{{p, "(present)", "(absent)"}}, "", without(i))
			continue
		}
		ed.add([]want{{path: path}}, "", func() func() { list[i] = changed(v); return func() { list[i] = v } })
		ed.add([]want{{path: path}}, "", without(i))
	}
}

func decodeTree(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func decodePack(t *testing.T, doc map[string]any) *Pack {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var p Pack
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

// check reports the edit's misses in one direction; swap reads the
// wants with the recorded and replayed sides exchanged.
func (e edit) check(divs []Divergence, swap bool) string {
	if e.prefix != "" {
		for _, d := range divs {
			if d.Path != e.prefix && !strings.HasPrefix(d.Path, e.prefix+".") && !strings.HasPrefix(d.Path, e.prefix+"[") {
				return fmt.Sprintf("deleting %s: stray divergence %s", e.prefix, d)
			}
		}
		if len(divs) == 0 {
			return fmt.Sprintf("deleting %s: no divergence", e.prefix)
		}
		return ""
	}
	got := map[string]Divergence{}
	for _, d := range divs {
		got[d.Path] = d
	}
	for _, w := range e.wants {
		if swap {
			w.rec, w.rep = w.rep, w.rec
		}
		d, ok := got[w.path]
		switch {
		case !ok:
			return fmt.Sprintf("%s: no divergence (got %v)", w.path, divs)
		case w.rec != "" && d.Recorded != w.rec && !(w.rec == "(present)" && d.Recorded != "(absent)"),
			w.rep != "" && d.Replayed != w.rep && !(w.rep == "(present)" && d.Replayed != "(absent)"):
			return fmt.Sprintf("%s: got %s, want recorded %s, replayed %s", w.path, d, w.rec, w.rep)
		}
	}
	if len(divs) != len(e.wants) {
		return fmt.Sprintf("%s: got %d divergences %v, want %d", e.wants[0].path, len(divs), divs, len(e.wants))
	}
	return ""
}

// mutate runs every edit of the document against Diff in both directions
// and fails with every miss.
func mutate(t *testing.T, raw []byte) {
	doc := decodeTree(t, raw)
	for name := range doc {
		if outOfScope[name] {
			delete(doc, name)
		}
	}
	if p := decodePack(t, doc); len(Diff(p, p, DiffOptions{})) != 0 {
		t.Fatalf("pack diverges from itself: %v", Diff(p, p, DiffOptions{}))
	}
	ed := &editor{t: t}
	for _, name := range sortedMembers(doc) {
		restore := ed.scope(map[string]any{name: doc[name]})
		ed.member("", ed.doc, name, false, "", nil)
		restore()
	}
	var misses []string
	for _, e := range ed.edits {
		undo := e.apply()
		m := decodePack(t, e.doc)
		undo()
		for _, swap := range []bool{false, true} {
			rec, rep := e.orig, m
			if swap {
				rec, rep = m, e.orig
			}
			if miss := e.check(Diff(rec, rep, DiffOptions{}), swap); miss != "" {
				misses = append(misses, fmt.Sprintf("swap=%v %s", swap, miss))
			}
		}
	}
	if len(misses) > 0 {
		t.Errorf("%d of %d edits (both directions) missed:\n%s", len(misses), 2*len(ed.edits), strings.Join(misses, "\n"))
	}
	t.Logf("%d edits checked in both directions", len(ed.edits))
}

// TestDiffSeesEveryGoldenLeaf runs the mutation test over the committed
// golden pack: every algorithm, attack, population and table leaf.
func TestDiffSeesEveryGoldenLeaf(t *testing.T) {
	raw, err := os.ReadFile("../../../results/census-1k.json")
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, raw)
}

// comparisonsFixture holds the two sections the golden pack lacks:
// comparison verdicts with their comparator maps, and file fingerprints.
const comparisonsFixture = `{
 "schema": "microdata/result-pack", "version": 1, "source": "files",
 "comparisons": [
  {"left": "T_3a", "right": "T_3b", "k_left": 2, "k_right": 3, "dominance": "incomparable",
   "privacy": {"cov": "left", "min": "tie", "spr": "right"}, "utility_cov": "right", "wtd": "left"},
  {"left": "a.csv", "right": "b.csv", "k_left": 4, "k_right": 5, "dominance": "left dominates",
   "privacy": {"hv-log": "left", "rank": "tie"}, "utility_cov": "tie", "wtd": "right"}
 ],
 "files": [
  {"role": "a", "path": "a.csv", "sha256": "aaaa"},
  {"role": "b", "path": "b.csv", "sha256": "bbbb"},
  {"role": "orig", "path": "orig.csv", "sha256": "cccc"}
 ]
}`

// TestDiffSeesEveryComparisonAndFileLeaf runs the mutation test over the
// comparisons and files fixture, entries present on one side only
// included in both directions.
func TestDiffSeesEveryComparisonAndFileLeaf(t *testing.T) {
	mutate(t, []byte(comparisonsFixture))
}
