package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// roundTol is how far apart, relative to their magnitude (at least 1), two
// floating-point outputs of one seed may be and still be the same result.
// The program sums some estimates while ranging over Go maps
// (simpoint.Run over cluster members, core.SampleLaunch over skipped
// regions), so the order of the terms, and with it the last bits of the
// sum, changes from run to run. Reordering a sum of n terms moves it by at
// most about n·2^-52 of its size; 1e-12 covers thousands of terms, while
// any change to what is summed moves an estimate by far more.
const roundTol = 1e-12

// sameOutputs compares two JSON encodings of one output of the program.
// Strings, booleans, integers and the document's shape must match exactly,
// and floating-point numbers to within roundTol. A difference beyond that
// fails the run's checks. One within it is counted, by field, under the
// record's "rounding_diffs" note: the program is not bit-reproducible, and
// the record shows where.
func (r *run) sameOutputs(what string, a, b []byte) {
	bad, rounding, err := jsonDiff(a, b)
	if err != nil {
		r.check(false, "%s: %v", what, err)
		return
	}
	r.check(len(bad) == 0, "%s differ in %s", what, strings.Join(bad, " "))
	if len(rounding) == 0 {
		return
	}
	counts, _ := r.notes["rounding_diffs"].(map[string]int)
	if counts == nil {
		counts = map[string]int{}
		r.notes["rounding_diffs"] = counts
	}
	for _, path := range rounding {
		counts[path]++
	}
}

// jsonDiff walks two JSON documents side by side and returns the paths
// whose values differ (bad) and those whose floating-point values differ
// only within roundTol (rounding).
func jsonDiff(a, b []byte) (bad, rounding []string, err error) {
	va, err := decodeNumbers(a)
	if err != nil {
		return nil, nil, err
	}
	vb, err := decodeNumbers(b)
	if err != nil {
		return nil, nil, err
	}
	var walk func(path string, x, y any)
	walk = func(path string, x, y any) {
		switch x := x.(type) {
		case map[string]any:
			y, ok := y.(map[string]any)
			if !ok {
				bad = append(bad, path)
				return
			}
			for _, k := range unionKeys(x, y) {
				walk(path+"."+k, x[k], y[k])
			}
		case []any:
			y, ok := y.([]any)
			if !ok || len(x) != len(y) {
				bad = append(bad, path)
				return
			}
			for i := range x {
				walk(fmt.Sprintf("%s[%d]", path, i), x[i], y[i])
			}
		case json.Number:
			y, ok := y.(json.Number)
			switch {
			case ok && x == y:
			case ok && withinRounding(x, y):
				rounding = append(rounding, path)
			default:
				bad = append(bad, path)
			}
		default: // string, bool or null
			if x != y {
				bad = append(bad, path)
			}
		}
	}
	walk("", va, vb)
	return bad, rounding, nil
}

// decodeNumbers decodes a JSON document keeping each number's literal, so
// an integer is compared digit for digit.
func decodeNumbers(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

// withinRounding reports whether two number literals are floating-point
// values within roundTol of each other. Two integer literals never are: an
// integer field must match exactly. (A float field whose value happens to
// be whole is written without a point, so one integer literal beside a
// fractional one is still a float field.)
func withinRounding(x, y json.Number) bool {
	isInt := func(n json.Number) bool { return !strings.ContainsAny(string(n), ".eE") }
	if isInt(x) && isInt(y) {
		return false
	}
	fx, errX := x.Float64()
	fy, errY := y.Float64()
	if errX != nil || errY != nil {
		return false
	}
	return math.Abs(fx-fy) <= roundTol*math.Max(1, math.Max(math.Abs(fx), math.Abs(fy)))
}

func unionKeys(a, b map[string]any) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
