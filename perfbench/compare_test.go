package main

import (
	"reflect"
	"testing"
)

func TestJSONDiff(t *testing.T) {
	cases := []struct {
		name          string
		a, b          string
		bad, rounding []string
	}{
		{"identical", `{"x":1,"y":[0.5,"s",true,null]}`, `{"x":1,"y":[0.5,"s",true,null]}`, nil, nil},
		// The pair an accuracy grid gave for one benchmark's Ideal-Simpoint
		// cycles when its cluster sums ran in another order.
		{"last-bit float", `{"c":469912.1849700599}`, `{"c":469912.18497005984}`, nil, []string{".c"}},
		{"small float, absolute floor", `{"e":0.025979715701217175}`, `{"e":0.025979715701217005}`, nil, []string{".e"}},
		{"whole-valued float", `{"c":469912}`, `{"c":469912.00000000006}`, nil, []string{".c"}},
		{"float beyond rounding", `{"c":469912.18}`, `{"c":469912.19}`, []string{".c"}, nil},
		{"integers exact", `{"n":1000000000000001}`, `{"n":1000000000000000}`, []string{".n"}, nil},
		{"missing key", `{"a":1,"b":2}`, `{"a":1}`, []string{".b"}, nil},
		{"list length", `{"l":[1,2]}`, `{"l":[1]}`, []string{".l"}, nil},
		{"type change", `{"l":[1]}`, `{"l":{"0":1}}`, []string{".l"}, nil},
		{"string", `[{"Name":"cfd"}]`, `[{"Name":"mst"}]`, []string{"[0].Name"}, nil},
	}
	for _, c := range cases {
		bad, rounding, err := jsonDiff([]byte(c.a), []byte(c.b))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(bad, c.bad) || !reflect.DeepEqual(rounding, c.rounding) {
			t.Errorf("%s: bad %v rounding %v, want bad %v rounding %v", c.name, bad, rounding, c.bad, c.rounding)
		}
	}
}

func TestSameOutputsCountsRoundingAndFailsOtherwise(t *testing.T) {
	r := newRun(config{workload: "test"})
	r.sameOutputs("pair", []byte(`{"c":1.0000000000000002}`), []byte(`{"c":1}`))
	r.sameOutputs("pair", []byte(`{"c":1.0000000000000002}`), []byte(`{"c":1}`))
	if len(r.problems) != 0 {
		t.Fatalf("a rounding difference failed the checks: %v", r.problems)
	}
	if got := r.notes["rounding_diffs"]; !reflect.DeepEqual(got, map[string]int{".c": 2}) {
		t.Errorf("rounding_diffs = %v", got)
	}
	r.sameOutputs("pair", []byte(`{"c":1.5}`), []byte(`{"c":1}`))
	if len(r.problems) != 1 {
		t.Errorf("a real difference left problems %v", r.problems)
	}
}
