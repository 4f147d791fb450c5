package core

import (
	"reflect"
	"testing"

	"probe/internal/obs"
)

// TestQueryStatsAddSumsEveryCounter: Add sums every field of the
// record but Results, so a counter added to QueryStats is summed by
// every caller (a statement's scans, NEAREST's rounds, the router's
// shards) or this fails.
func TestQueryStatsAddSumsEveryCounter(t *testing.T) {
	var one QueryStats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		default:
			t.Fatalf("field %s is a %v", v.Type().Field(i).Name, f.Kind())
		}
	}
	sum := one
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		name, want := s.Type().Field(i).Name, int64(2)
		if name == "Results" {
			want = 1
		}
		got := s.Field(i)
		if got.CanInt() && got.Int() != want || got.CanUint() && got.Uint() != uint64(want) {
			t.Errorf("%s = %v after adding 1 to 1, want %d", name, got, want)
		}
	}
}

// TestStatsTableNamesEveryFieldOnce: link pairs every QueryStats field
// with a counter of its own, so a field set alone shows on exactly one
// counter, no two fields share one, and the record survives the trip
// through its counts.
func TestStatsTableNamesEveryFieldOnce(t *testing.T) {
	seen := map[obs.Counter]string{}
	var all QueryStats
	v := reflect.ValueOf(&all).Elem()
	for i := 0; i < v.NumField(); i++ {
		var one QueryStats
		f := reflect.ValueOf(&one).Elem().Field(i)
		name := v.Type().Field(i).Name
		if f.CanInt() {
			f.SetInt(int64(i + 1))
			v.Field(i).SetInt(int64(i + 1))
		} else {
			f.SetUint(uint64(i + 1))
			v.Field(i).SetUint(uint64(i + 1))
		}
		c := CountsOf(one)
		var on []obs.Counter
		for k, n := range c {
			if n != 0 {
				on = append(on, obs.Counter(k))
			}
		}
		if len(on) != 1 || c[on[0]] != int64(i+1) {
			t.Fatalf("%s set alone shows on counters %v", name, on)
		}
		if prev, ok := seen[on[0]]; ok {
			t.Fatalf("%s and %s share counter %v", prev, name, on[0])
		}
		seen[on[0]] = name
	}
	c := CountsOf(all)
	if back := StatsOf(&c); back != all {
		t.Fatalf("StatsOf(CountsOf(s)) = %+v, want %+v", back, all)
	}
}
