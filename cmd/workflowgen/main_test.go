package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunErrors: a bad flag or value answers an error that starts with
// the usage line; an unknown figure id names the figure.
func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		usage bool
		want  string
	}{
		{[]string{"-bogus"}, true, "flag provided but not defined: -bogus"},
		{[]string{"-scale", "bogus"}, true, `unknown scale "bogus"`},
		{[]string{"-fig", "fig99", "-numcars", "40"}, false, `unknown figure "fig99"`},
	} {
		err := run(tc.args, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) ||
			tc.usage != strings.HasPrefix(err.Error(), "usage: workflowgen") {
			t.Errorf("%v: error = %v, want one containing %q (usage line: %v)", tc.args, err, tc.want, tc.usage)
		}
	}
}

func TestRunFig5c(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "fig5c", "-numcars", "80"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"== fig5c: Car dealerships: impact of parallelism",
		`series "provenance":`, `series "no provenance":`,
		"note: measured tracking overhead factor",
		"(experiment wall time:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "\n     54 "); n != 2 {
		t.Errorf("want the 54-reducer point once per series, got %d:\n%s", n, got)
	}
}
