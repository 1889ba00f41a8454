package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunSmoke drives the whole command on a generated corpus and checks
// that every section is printed and that the one figure the report
// computes nowhere else — the gap codec's bits per edge — is a plausible
// compression of 32-bit adjacency.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "UK2002", "-scale", "0.002", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, header := range []string{
		"== corpus ==", "== page graph ==", "== compression ==",
		"== out-of-core (projected) ==", "== source graph ==", "== score inequality ==",
	} {
		if !strings.Contains(report, header) {
			t.Errorf("report lacks section %q:\n%s", header, report)
		}
	}
	m := regexp.MustCompile(`gap varint: +([0-9.]+) bits/edge`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report lacks the gap-codec line:\n%s", report)
	}
	if bpe, err := strconv.ParseFloat(m[1], 64); err != nil || bpe <= 0 || bpe >= 32 {
		t.Errorf("gap codec bits/edge = %q, want in (0, 32)", m[1])
	}
}

func TestRunUnknownPreset(t *testing.T) {
	if err := run([]string{"-preset", "nosuch"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
