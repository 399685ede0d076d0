package main

import (
	"strings"
	"testing"

	rd "radixdecluster"
)

// TestMethodFlag pins -lm/-sm parsing: empty or exactly one of the
// side's letters, and an error naming the flag for anything else — a
// word that merely starts with a method letter is not that method.
func TestMethodFlag(t *testing.T) {
	for _, tc := range []struct {
		flag, s, letters string
		want             rd.ProjMethod
		ok               bool
	}{
		{"lm", "", "usc", rd.AutoMethod, true},
		{"lm", "u", "usc", rd.UnsortedMethod, true},
		{"lm", "s", "usc", rd.SortedMethod, true},
		{"lm", "c", "usc", rd.ClusterMethod, true},
		{"sm", "u", "ud", rd.UnsortedMethod, true},
		{"sm", "d", "ud", rd.DeclusterMethod, true},
		{"lm", "sorted", "usc", 0, false},
		{"sm", "unsorted", "ud", 0, false},
		{"lm", "d", "usc", 0, false},
		{"sm", "c", "ud", 0, false},
		{"sm", "x", "ud", 0, false},
		{"lm", "U", "usc", 0, false},
	} {
		got, err := method(tc.flag, tc.s, tc.letters)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "-"+tc.flag) {
				t.Errorf("method(%q, %q) = %q, %v; want an error naming -%s", tc.flag, tc.s, got, err, tc.flag)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("method(%q, %q) = %q, %v; want %q", tc.flag, tc.s, got, err, tc.want)
		}
	}
}
