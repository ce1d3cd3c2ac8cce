package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Sealed text is the framing the repo's checksummed line formats share
// (cache entries here, sweep points in internal/harness): a magic line
// naming the format and its version, the format's own lines, and a
// trailing "sum <sha256>" line over every byte before it.

// Seal appends the checksum line to the text accumulated in b and
// returns the sealed bytes.
func Seal(b *bytes.Buffer) []byte {
	sum := sha256.Sum256(b.Bytes())
	fmt.Fprintf(b, "sum %s\n", hex.EncodeToString(sum[:]))
	return b.Bytes()
}

// Unseal checks sealed text — trailing newline, checksum line, checksum,
// magic line — and returns the lines between the magic and the checksum.
// noun names the format in the error ("entry", "point"); a first line
// that shares the magic's name but not its version is reported as
// version skew, so mixed builds get a diagnosis instead of a parse error.
func Unseal(data []byte, magic, noun string) ([]string, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty %s", noun)
	}
	text := string(data)
	if !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("truncated %s: missing trailing newline", noun)
	}
	badMagic := func(first string) error {
		if strings.HasPrefix(first, magic[:strings.LastIndex(magic, " ")+1]) {
			return fmt.Errorf("version skew: %s format %q, want %q", noun, first, magic)
		}
		return fmt.Errorf("not a valid %s (bad magic line)", noun)
	}
	// The checksum line covers every byte before it; check it first so
	// corruption anywhere is caught before field parsing.
	cut := strings.LastIndex(text[:len(text)-1], "\n")
	sumTok, ok := strings.CutPrefix(text[cut+1:len(text)-1], "sum ")
	if !ok {
		// A recognisable header with no checksum is truncation; anything
		// else on the first line is version skew or not this format.
		if strings.HasPrefix(text, magic+"\n") {
			return nil, fmt.Errorf("truncated %s: missing checksum line", noun)
		}
		first, _, _ := strings.Cut(text, "\n")
		return nil, badMagic(first)
	}
	payload := data[:cut+1]
	want := sha256.Sum256(payload)
	if sumTok != hex.EncodeToString(want[:]) {
		return nil, fmt.Errorf("checksum mismatch: %s bytes corrupted", noun)
	}
	lines := strings.Split(string(payload), "\n")
	lines = lines[:len(lines)-1] // drop the empty tail after the final \n
	if len(lines) == 0 {
		return nil, badMagic("")
	}
	if lines[0] != magic {
		return nil, badMagic(lines[0])
	}
	return lines[1:], nil
}

// canonMagnitude reports whether s starts like a canonical decimal: a
// digit first (no sign, not empty) and no leading zero except "0"
// itself. strconv rejects everything else non-canonical in base 10.
func canonMagnitude(s string) bool {
	return s != "" && s[0] >= '0' && s[0] <= '9' && (s[0] != '0' || len(s) == 1)
}

// CanonUint parses a canonical base-10 uint64: digits only, no sign, no
// leading zeros except "0" itself — the one spelling Encode produces, so
// decode→re-encode is the identity.
func CanonUint(tok string) (uint64, error) {
	if v, err := strconv.ParseUint(tok, 10, 64); err == nil && canonMagnitude(tok) {
		return v, nil
	}
	return 0, fmt.Errorf("%q is not a canonical unsigned integer", tok)
}

// CanonInt is CanonUint for int64; negatives are "-" plus a canonical
// non-zero magnitude.
func CanonInt(tok string) (int64, error) {
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil && canonMagnitude(strings.TrimPrefix(tok, "-")) && tok != "-0" {
		return v, nil
	}
	return 0, fmt.Errorf("%q is not a canonical integer", tok)
}
