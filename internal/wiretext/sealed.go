package wiretext

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Sealed text is the framing the checksummed formats share (cache
// entries, sweep points): a magic line naming the format and its
// version, the format's own lines, and a trailing "sum <sha256>" line
// over every byte before it.

// Seal appends the checksum line to the text accumulated in b and
// returns the sealed bytes.
func Seal(b *bytes.Buffer) []byte {
	fmt.Fprintf(b, "sum %s\n", sumHex(b.Bytes()))
	return b.Bytes()
}

// Unseal checks sealed text — trailing newline, checksum line, checksum,
// magic line — and returns a Reader over the lines between the magic
// (line 1) and the checksum; a framing failure comes back as the
// Reader's error. noun names the format ("entry", "point"); a first
// line that shares the magic's name but not its version is reported as
// version skew, so mixed builds get a diagnosis instead of a parse
// error. The Reader walks the one string copy of data made here.
func Unseal(data []byte, magic, noun string) Reader {
	r := Reader{noun: noun}
	text := string(data)
	if text == "" {
		r.failAt(0, "empty %s", noun)
		return r
	}
	if !strings.HasSuffix(text, "\n") {
		r.failAt(0, "truncated %s: missing trailing newline", noun)
		return r
	}
	first, _, _ := strings.Cut(text, "\n")
	// The checksum line covers every byte before it; check it first so
	// corruption anywhere is caught before field parsing.
	cut := strings.LastIndex(text[:len(text)-1], "\n") + 1
	sumTok, ok := strings.CutPrefix(text[cut:len(text)-1], "sum ")
	switch {
	case !ok && first == magic:
		// A recognisable header with no checksum is truncation; anything
		// else on the first line is version skew or not this format.
		r.failAt(0, "truncated %s: missing checksum line", noun)
	case !ok:
		r.badMagic(first, magic)
	case sumTok != sumHex(data[:cut]):
		r.failAt(0, "checksum mismatch: %s bytes corrupted", noun)
	case first != magic:
		r.badMagic(first, magic)
	default:
		r.rest, r.n = text[len(magic)+1:cut], 1
	}
	return r
}

func sumHex(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func (r *Reader) badMagic(first, magic string) {
	if strings.HasPrefix(first, magic[:strings.LastIndex(magic, " ")+1]) {
		r.failAt(0, "version skew: %s format %q, want %q", r.noun, first, magic)
	} else {
		r.failAt(0, "not a valid %s (bad magic line)", r.noun)
	}
}
