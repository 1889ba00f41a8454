// Package sysmem reads process memory counters for the benchmark and ops
// tooling: peak resident set size, plus a parser for human-friendly byte
// sizes. Counters come from /proc on Linux and report 0 (with ok = false)
// elsewhere — callers degrade to omitting the fields rather than failing.
package sysmem

import (
	"fmt"
	"strconv"
	"strings"
)

// PeakRSSBytes returns the high-water-mark resident set size since
// process start or the last ResetPeakRSS, or ok = false where
// unsupported.
func PeakRSSBytes() (int64, bool) { return readStatusKB("VmHWM:") }

// ResetPeakRSS resets the peak-RSS high-water mark to the current RSS,
// so a sequence of phases can each be attributed their own peak. Returns
// false where the platform doesn't support resetting (the peak then
// covers the whole process lifetime).
func ResetPeakRSS() bool { return resetPeakRSS() }

// ParseBytes parses a byte size with an optional binary suffix: "512m",
// "2g", "300000000", "64K". Suffixes are powers of 1024; case does not
// matter; "b" and "ib" tails are accepted ("512MiB").
func ParseBytes(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("sysmem: empty size")
	}
	mult := int64(1)
	t = strings.TrimSuffix(t, "ib")
	t = strings.TrimSuffix(t, "b")
	switch {
	case strings.HasSuffix(t, "k"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "m"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "g"):
		mult, t = 1<<30, t[:len(t)-1]
	case strings.HasSuffix(t, "t"):
		mult, t = 1<<40, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sysmem: bad size %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("sysmem: negative size %q", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("sysmem: size %q overflows", s)
	}
	return n * mult, nil
}

// FormatBytes renders n with the largest exact-enough binary suffix, for
// log lines ("1.2 GiB").
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGT"[exp])
}
