package resultcache

import (
	"crypto/sha256"
	"strings"
	"testing"
)

// keyOf is a test key: the sha256 of its parts, one per line. The cache
// files entries under whatever key its caller derives.
func keyOf(parts ...string) Key { return sha256.Sum256([]byte(strings.Join(parts, "\n"))) }

func TestParseKeyRoundTrip(t *testing.T) {
	k := keyOf("system", "dirnnb")
	s := k.String()
	if len(s) != 64 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 64 lowercase hex chars", s)
	}
	got, err := ParseKey(s)
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", s, err)
	}
	if got != k {
		t.Errorf("round trip diverged: %s vs %s", got, k)
	}
	for name, bad := range map[string]string{
		"short":     s[:63],
		"long":      s + "0",
		"uppercase": strings.ToUpper(s),
		"non-hex":   "zz" + s[2:],
	} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("%s: ParseKey(%q) succeeded, want error", name, bad)
		}
	}
}
