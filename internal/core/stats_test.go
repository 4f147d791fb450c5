package core

import (
	"reflect"
	"testing"
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
