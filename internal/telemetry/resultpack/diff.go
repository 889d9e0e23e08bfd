package resultpack

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"microdata/internal/telemetry/perf"
)

// DiffOptions tunes the replay comparison.
type DiffOptions struct {
	// ULPs is the Float tolerance in units in the last place (default 4):
	// it absorbs summation-order jitter, never a visible change such as a
	// retouched fourth decimal. Every other claim compares exactly.
	ULPs uint64
}

// Divergence is one field where the replayed capture disagrees with the
// recorded pack, addressed by a JSONPath-style path.
type Divergence struct {
	Path     string `json:"path"`
	Recorded string `json:"recorded"`
	Replayed string `json:"replayed"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s: recorded %s, replayed %s", d.Path, d.Recorded, d.Replayed)
}

// Diff compares a replayed capture against the recorded pack and returns
// every divergence. It walks both values with one rule per kind, so a
// field added to Pack is judged without a case of its own:
//   - a Float compares ULP-tolerantly (NaN matches NaN, ±0 are equal, an
//     infinity's sign must match); every other scalar compares exactly;
//   - a nil pointer, or a map key or keyed element on one side only, is a
//     presence divergence, "(present)" against "(absent)";
//   - a slice whose elements have a key method is matched element by
//     element on that key; any other slice compares as a whole value.
//
// Paths spell fields by their JSON names. judged lists what is out of scope.
func Diff(recorded, replayed *Pack, opts DiffOptions) []Divergence {
	d := &differ{ulps: opts.ULPs, names: map[reflect.Type][]string{}}
	if d.ulps == 0 {
		d.ulps = 4
	}
	d.walk(path{}, reflect.ValueOf(judged(recorded)), reflect.ValueOf(judged(replayed)))
	return d.out
}

// judged returns a copy of p's claims in canonical section order. The
// manifest is checked by Read and the environment by the caller; schema,
// version and creation time are not claims. All are zeroed here, only here.
func judged(p *Pack) Pack {
	c := *p
	c.Schema, c.Version, c.CreatedUnixMS, c.Env, c.Manifest = "", 0, 0, perf.Env{}, nil
	for v, i := reflect.ValueOf(&c).Elem(), 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			f.Set(reflect.AppendSlice(reflect.Zero(f.Type()), f))
		}
	}
	c.SortSections()
	return c
}

// keyed is implemented by the elements of the sections matched by
// identity rather than position; key spells that identity in paths.
type keyed interface{ key() string }

func (a *AlgorithmResult) key() string  { return "k=" + strconv.Itoa(a.K) + "/" + a.Algorithm }
func (a *AttackRisk) key() string       { return "k=" + strconv.Itoa(a.K) + "/" + a.Algorithm }
func (t *TableDigest) key() string      { return t.ID }
func (c *ComparisonResult) key() string { return c.Left + " vs " + c.Right }
func (f *FileFingerprint) key() string  { return f.Role }

type differ struct {
	ulps  uint64
	out   []Divergence
	names map[reflect.Type][]string // JSON field names, per struct type
}

// path is a divergence path, joined only when needed: most leaves agree.
type path struct{ parent, name string }

func (p path) String() string {
	if p.parent == "" || p.name == "" {
		return p.parent + p.name
	}
	return p.parent + "." + p.name
}

var presence = map[bool]string{true: "(present)", false: "(absent)"}

func (d *differ) add(at path, recorded, replayed string) {
	d.out = append(d.out, Divergence{Path: at.String(), Recorded: recorded, Replayed: replayed})
}

func (d *differ) walk(at path, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Struct:
		names, cached := d.names[a.Type()]
		for i := 0; !cached && i < a.NumField(); i++ {
			name, _, _ := strings.Cut(a.Type().Field(i).Tag.Get("json"), ",")
			names = append(names, name)
			d.names[a.Type()] = names
		}
		for i, parent := 0, at.String(); i < len(names); i++ {
			d.walk(path{parent, names[i]}, a.Field(i), b.Field(i))
		}
	case reflect.Pointer:
		if !a.IsNil() && !b.IsNil() {
			d.walk(at, a.Elem(), b.Elem())
		} else if a.IsNil() != b.IsNil() {
			d.add(at, presence[!a.IsNil()], presence[!b.IsNil()])
		}
	case reflect.Map:
		k, names, parent := reflect.New(a.Type().Key()).Elem(), make([]string, 0, a.Len()+b.Len()), at.String()
		for _, m := range []reflect.Value{a, b} {
			for it := m.MapRange(); it.Next(); {
				k.SetIterKey(it)
				names = append(names, k.String())
			}
		}
		slices.Sort(names)
		for _, name := range slices.Compact(names) {
			k.SetString(name)
			if av, bv := a.MapIndex(k), b.MapIndex(k); av.IsValid() && bv.IsValid() {
				d.walk(path{parent, name}, av, bv)
			} else {
				d.add(path{parent, name}, presence[av.IsValid()], presence[bv.IsValid()])
			}
		}
	case reflect.Slice:
		if reflect.PointerTo(a.Type().Elem()).Implements(reflect.TypeOf((*keyed)(nil)).Elem()) {
			d.keyed(at.String(), a, b)
		} else if a.Len() != b.Len() || a.Len() > 0 && !reflect.DeepEqual(a.Interface(), b.Interface()) {
			d.add(at, fmt.Sprint(a), fmt.Sprint(b))
		}
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float() // x == y covers same-sign infinities and ±0
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) && (math.IsNaN(x) || math.IsNaN(y) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || ulpDistance(x, y) > d.ulps) {
			d.add(at, strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(y, 'g', -1, 64))
		}
	case reflect.String:
		if a.String() != b.String() {
			d.add(at, strconv.Quote(a.String()), strconv.Quote(b.String()))
		}
	default:
		if !a.Equal(b) {
			d.add(at, fmt.Sprint(a), fmt.Sprint(b))
		}
	}
}

// keyed matches two sections element by element on their keys: recorded
// elements in order, then replayed-only ones in theirs.
func (d *differ) keyed(section string, a, b reflect.Value) {
	pos, order := map[path][2]int{}, []path(nil)
	for side, s := range []reflect.Value{a, b} {
		for i := 0; i < s.Len(); i++ {
			at := path{parent: section + "[" + s.Index(i).Addr().Interface().(keyed).key() + "]"}
			p, seen := pos[at]
			if !seen {
				p, order = [2]int{-1, -1}, append(order, at)
			}
			p[side] = i
			pos[at] = p
		}
	}
	for _, at := range order {
		if i, j := pos[at][0], pos[at][1]; i >= 0 && j >= 0 {
			d.walk(at, a.Index(i), b.Index(j))
		} else {
			d.add(at, presence[i >= 0], presence[j >= 0])
		}
	}
}

// ulpDistance counts the representable float64 values between two finite
// doubles; -0 and +0 are one value.
func ulpDistance(a, b float64) uint64 {
	ua, ub := math.Float64bits(math.Abs(a)), math.Float64bits(math.Abs(b))
	if math.Signbit(a) != math.Signbit(b) {
		return ua + ub
	}
	return max(ua, ub) - min(ua, ub)
}

// WriteDivergences renders one line per divergence — the path-level
// diagnostic `compare -verify` prints before exiting with ExitDrift.
func WriteDivergences(w io.Writer, divs []Divergence) {
	for _, d := range divs {
		fmt.Fprintf(w, "divergence: %s\n", d.String())
	}
}
