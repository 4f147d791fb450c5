package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFlagsGolden: every flag keeps its name and default
// (testdata/flags.golden was recorded before the shared flags moved to
// internal/daemon).
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("zrouted", flag.ContinueOnError)
	register(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "-%s=%s\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flags drifted from testdata/flags.golden:\n%s", got.String())
	}
}
