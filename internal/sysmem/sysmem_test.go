package sysmem

import (
	"runtime"
	"testing"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"1234", 1234},
		{"1k", 1 << 10},
		{"64K", 64 << 10},
		{"512m", 512 << 20},
		{"512MB", 512 << 20},
		{"512MiB", 512 << 20},
		{"2g", 2 << 30},
		{"2GiB", 2 << 30},
		{"1t", 1 << 40},
		{" 300 ", 300},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "g", "-5m", "12x", "9999999999999g"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{300 << 20, "300.0 MiB"},
		{3 << 30, "3.0 GiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRSSCounters(t *testing.T) {
	peak, okPeak := PeakRSSBytes()
	if runtime.GOOS != "linux" {
		if okPeak {
			t.Fatal("non-linux platform reported RSS support")
		}
		return
	}
	if !okPeak {
		t.Fatal("linux must expose VmHWM")
	}
	if peak <= 0 {
		t.Fatalf("implausible counter: peak=%d", peak)
	}
	// Touch a fresh allocation; peak must not decrease.
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	after, ok := PeakRSSBytes()
	if !ok || after < peak {
		t.Fatalf("peak shrank: %d -> %d", peak, after)
	}
	runtime.KeepAlive(buf)

	if ResetPeakRSS() {
		reset, ok := PeakRSSBytes()
		if !ok {
			t.Fatal("peak unreadable after reset")
		}
		// After a reset the HWM re-anchors near the current RSS — well
		// below the inflated pre-reset peak plus the touched buffer.
		if reset > after+(1<<20) {
			t.Fatalf("reset did not lower the high-water mark: %d > %d", reset, after)
		}
	}
}
