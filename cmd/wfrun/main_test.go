package main

import (
	"bytes"
	"strings"
	"testing"

	"geomds/internal/core"
)

// wfrun runs one invocation and returns its exit code and outputs.
func wfrun(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCompareRunsEveryStrategy(t *testing.T) {
	code, out, errOut := wfrun("-workflow", "pipeline", "-tasks", "4", "-nodes", "4", "-scale", "0.001", "-size", "0.1", "-compare")
	if code != 0 {
		t.Fatalf("wfrun -compare exited %d: %s", code, errOut)
	}
	if !strings.Contains(out, "workflow pipeline-pipeline: 4 jobs") {
		t.Errorf("no workflow summary line:\n%s", out)
	}
	lines := make(map[string]string) // first word -> line
	for _, line := range strings.Split(out, "\n") {
		if words := strings.Fields(line); len(words) > 0 {
			lines[words[0]] = line
		}
	}
	for _, kind := range core.Strategies {
		if !strings.Contains(lines[kind.String()], "makespan") {
			t.Errorf("no makespan line for %s:\n%s", kind, out)
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	cases := []struct {
		args     []string
		wantCode int
		wantErr  string
	}{
		{[]string{"-no-such-flag"}, 2, "no-such-flag"},
		{[]string{"-scenario", "XL"}, 1, `unknown scenario "XL"`},
		{[]string{"-workflow", "ring"}, 1, `unknown workflow "ring"`},
		{[]string{"-workflow", "pipeline", "-tasks", "2", "-strategy", "quorum"}, 1, "quorum"},
		{[]string{"-workflow", "pipeline", "-tasks", "2", "-scheduler", "fifo"}, 1, `unknown scheduler "fifo"`},
	}
	for _, tc := range cases {
		code, _, errOut := wfrun(tc.args...)
		if code != tc.wantCode || !strings.Contains(errOut, tc.wantErr) {
			t.Errorf("wfrun %v = exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, errOut, tc.wantCode, tc.wantErr)
		}
	}
}
