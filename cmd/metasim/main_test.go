package main

import (
	"bytes"
	"strings"
	"testing"
)

// metasim runs one invocation and returns its exit code and outputs.
func metasim(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestTableAndFigurePrint(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-table", "1"}, []string{"Table I", "Small Scale", "Computation Intensive", "Metadata Intensive"}},
		{[]string{"-fig", "9"}, []string{"Figure 9", "buzzflow", "montage"}},
		{[]string{"-table", "1", "-scale", "0.5", "-size", "0.5", "-nodes", "4", "-seed", "7"}, []string{"Table I", "scale 0.5, size factor 0.5"}},
	}
	for _, tc := range cases {
		code, out, errOut := metasim(tc.args...)
		if code != 0 {
			t.Fatalf("metasim %v exited %d: %s", tc.args, code, errOut)
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("metasim %v printed no %q:\n%s", tc.args, want, out)
			}
		}
		if !strings.Contains(out, "completed in") {
			t.Errorf("metasim %v printed no completion line:\n%s", tc.args, out)
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-table", "1", "-keydist", "pareto"}, "-keydist"},
		{[]string{"-table", "1", "-replication", "2"}, "replication requires a sharded tier"},
		{nil, "-fig"}, // nothing selected: the usage text lists the flags
		{[]string{"-no-such-flag"}, "no-such-flag"},
	}
	for _, tc := range cases {
		code, out, errOut := metasim(tc.args...)
		if code != 2 {
			t.Errorf("metasim %v exited %d, want 2", tc.args, code)
		}
		if !strings.Contains(errOut, tc.wantErr) {
			t.Errorf("metasim %v: stderr %q does not mention %q", tc.args, errOut, tc.wantErr)
		}
		if out != "" {
			t.Errorf("metasim %v printed to stdout: %q", tc.args, out)
		}
	}
}

func TestUnknownFigureFails(t *testing.T) {
	if code, _, errOut := metasim("-fig", "4"); code != 1 || !strings.Contains(errOut, "unknown figure 4") {
		t.Errorf("metasim -fig 4 = exit %d, stderr %q; want exit 1 naming the figure", code, errOut)
	}
	if code, _, errOut := metasim("-table", "2"); code != 1 || !strings.Contains(errOut, "unknown table 2") {
		t.Errorf("metasim -table 2 = exit %d, stderr %q; want exit 1 naming the table", code, errOut)
	}
}
