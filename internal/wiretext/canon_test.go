package wiretext

import (
	"math"
	"strconv"
	"testing"
)

// TestCanonIntegers pins the one canonical spelling per value that
// every text format parses with: exactly what strconv.Format* produces,
// nothing else.
func TestCanonIntegers(t *testing.T) {
	for _, tok := range []string{"0", "7", "10", "18446744073709551615"} {
		if v, err := CanonUint(tok, math.MaxUint64); err != nil || strconv.FormatUint(v, 10) != tok {
			t.Errorf("CanonUint(%q) = %d, %v", tok, v, err)
		}
	}
	for _, tok := range []string{"", "00", "07", "+7", "-7", "-0", "1_0", "0x10", " 7", "7 ", "18446744073709551616"} {
		if v, err := CanonUint(tok, math.MaxUint64); err == nil {
			t.Errorf("CanonUint(%q) = %d, want an error", tok, v)
		}
	}
	for _, tok := range []string{"0", "7", "-7", "-10", strconv.Itoa(math.MaxInt64), strconv.Itoa(math.MinInt64)} {
		if v, err := CanonInt(tok); err != nil || strconv.FormatInt(v, 10) != tok {
			t.Errorf("CanonInt(%q) = %d, %v", tok, v, err)
		}
	}
	for _, tok := range []string{"", "-", "-0", "+7", "--7", "-+7", "07", "-07", "1_0", "9223372036854775808"} {
		if v, err := CanonInt(tok); err == nil {
			t.Errorf("CanonInt(%q) = %d, want an error", tok, v)
		}
	}
}
