package main

import (
	"errors"
	"testing"
)

func TestFormatSHA(t *testing.T) {
	for _, tc := range []struct {
		head, porcelain string
		statusErr       error
		want            string
	}{
		{"b06bee1\n", "", nil, "b06bee1"},
		{"b06bee1\n", "\n", nil, "b06bee1"},
		{"b06bee1\n", " M internal/campaign/coordinator.go\n", nil, "b06bee1-dirty"},
		{"b06bee1\n", "?? scratch.txt\n", nil, "b06bee1-dirty"},
		{"b06bee1\n", "", errors.New("git status failed"), "b06bee1-dirty"},
	} {
		if got := formatSHA(tc.head, tc.porcelain, tc.statusErr); got != tc.want {
			t.Errorf("formatSHA(%q, %q, %v) = %q, want %q", tc.head, tc.porcelain, tc.statusErr, got, tc.want)
		}
	}
}
