// Package wiretext is the one reader under the repo's decoded text
// formats: result-cache entries, sweep points and fleet message lines.
// It owns the decision "how a record is spelled in text" — lines end in
// '\n', tokens are separated by single spaces, and every number has
// exactly one spelling — so each format keeps only its
// field list, and anything a Reader accepts re-encodes to the bytes
// that were read.
package wiretext

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Error is a Reader's failure: what was being read, on which line, and
// why. The formats wrap it in their own structured errors.
type Error struct {
	// Noun names the format ("entry", "point", "message").
	Noun string
	// Line is the 1-based line number, or 0 when the failure belongs to
	// no numbered line (sealed-text framing, a lone message line).
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.Line == 0 {
		return e.Msg
	}
	return fmt.Sprintf("%s line %d: %s", e.Noun, e.Line, e.Msg)
}

// Reader is a cursor over text: line accessors (Line, Optional, End)
// choose the current line, token accessors (Token, Rest, Uint, Int,
// Bool) consume it left to right. The first failure sticks:
// every later accessor is a no-op returning a zero value, so a decoder
// reads its whole field list straight through and checks Err once.
type Reader struct {
	noun string
	rest string // input after the current line
	n    int    // number of the current line
	key  string // what messages call the current line
	line string // the current line
	pos  int    // offset of its unread part
	err  *Error
}

// NewReader reads text from its first line.
func NewReader(text, noun string) Reader {
	return Reader{noun: noun, rest: text}
}

// OneLine reads a single line that arrived without its newline — a
// fleet message line — starting at its first token.
func OneLine(line, noun string) Reader {
	return Reader{noun: noun, key: noun, line: line}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error {
	if r.err == nil {
		return nil
	}
	return r.err
}

// Failf records a failure the format itself detected (a value out of
// order or out of range) against the current line.
func (r *Reader) Failf(format string, args ...any) {
	r.failAt(r.n, format, args...)
}

func (r *Reader) failAt(line int, format string, args ...any) {
	if r.err == nil {
		r.err = &Error{Noun: r.noun, Line: line, Msg: fmt.Sprintf(format, args...)}
	}
}

func (r *Reader) malformed() {
	r.Failf("malformed %s line %q", r.key, r.line)
}

// peek returns the next line without consuming it. It is where a line
// read short is caught: the current line must have no unread part.
func (r *Reader) peek() (string, bool) {
	if r.err == nil && r.pos != len(r.line) {
		r.malformed()
	}
	if r.err != nil || r.rest == "" {
		return "", false
	}
	i := strings.IndexByte(r.rest, '\n')
	if i < 0 {
		r.failAt(r.n+1, "truncated %s: missing trailing newline", r.noun)
		return "", false
	}
	return r.rest[:i], true
}

// take makes the peeked line l current, read up to offset pos.
func (r *Reader) take(l, key string, pos int) {
	r.rest = r.rest[len(l)+1:]
	r.n++
	r.key, r.line, r.pos = key, l, pos
}

// keyed reports whether l is a "key" or "key token..." line.
func keyed(l, key string) bool {
	return strings.HasPrefix(l, key) && (len(l) == len(key) || l[len(key)] == ' ')
}

// Line makes the next line current; it must start with key. The Reader
// is returned so a one-value line reads as r.Line("cycles").Uint().
func (r *Reader) Line(key string) *Reader {
	l, ok := r.peek()
	switch {
	case ok && keyed(l, key):
		r.take(l, key, len(key))
	case ok:
		r.failAt(r.n+1, "expected %q line, got %q", key, l)
	default:
		r.failAt(r.n+1, "truncated %s: missing %q line", r.noun, key)
	}
	return r
}

// Optional makes the next line current if it starts with key, and
// reports whether it did; a repeated line is a loop over Optional.
func (r *Reader) Optional(key string) bool {
	l, ok := r.peek()
	if ok = ok && keyed(l, key); ok {
		r.take(l, key, len(key))
	}
	return ok
}

// End requires the end of input: the current line read to its last
// token and no line after it.
func (r *Reader) End() {
	if l, ok := r.peek(); ok {
		r.failAt(r.n+1, "unexpected line %q", l)
	}
}

// More reports whether the current line has unread tokens.
func (r *Reader) More() bool {
	return r.err == nil && r.pos < len(r.line)
}

// ValidToken reports whether s may stand between two single spaces:
// non-empty, no space, no control byte.
func ValidToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] == 0x7f {
			return false
		}
	}
	return s != ""
}

// sep steps over the single space that must precede every token but a
// line's first.
func (r *Reader) sep() bool {
	if r.err != nil {
		return false
	}
	if r.pos > 0 {
		if r.pos == len(r.line) || r.line[r.pos] != ' ' {
			r.malformed()
			return false
		}
		r.pos++
	}
	return true
}

// Token consumes the current line's next token. This is the only way a
// line is split: a doubled, leading or trailing space makes an empty
// token, and that — like a control byte — fails the line.
func (r *Reader) Token() string {
	if !r.sep() {
		return ""
	}
	tok := r.line[r.pos:]
	if i := strings.IndexByte(tok, ' '); i >= 0 {
		tok = tok[:i]
	}
	if !ValidToken(tok) {
		r.malformed()
		return ""
	}
	r.pos += len(tok)
	return tok
}

// Rest consumes what is left of the current line as one value, spaces
// included. An empty value is refused: encoders omit such lines.
func (r *Reader) Rest() string {
	if !r.sep() {
		return ""
	}
	v := r.line[r.pos:]
	if v == "" {
		r.Failf("empty %s line", r.key)
	}
	r.pos = len(r.line)
	return v
}

// Uint consumes a canonical decimal uint64.
func (r *Reader) Uint() uint64 { return r.UintMax(math.MaxUint64) }

// UintMax is Uint refusing values above max.
func (r *Reader) UintMax(max uint64) uint64 {
	v, err := CanonUint(r.Token(), max)
	r.check(err)
	return v
}

// Int consumes a canonical decimal int.
func (r *Reader) Int() int {
	v, err := CanonInt(r.Token())
	r.check(err)
	return int(v)
}

// Bool consumes "true" or "false".
func (r *Reader) Bool() bool {
	tok := r.Token()
	if tok != "true" && tok != "false" {
		r.check(fmt.Errorf("%q is not a boolean", tok))
	}
	return tok == "true"
}

// check records a token's parse failure, naming the line. After an
// earlier failure Token returns "", which no parser accepts, and the
// failure recorded first stands.
func (r *Reader) check(err error) {
	if err != nil {
		r.Failf("%s: %v", r.key, err)
	}
}

// canonMagnitude reports whether s starts like a canonical decimal: a
// digit first (no sign, not empty) and no leading zero except "0"
// itself. strconv rejects everything else non-canonical in base 10.
func canonMagnitude(s string) bool {
	return s != "" && s[0] >= '0' && s[0] <= '9' && (s[0] != '0' || len(s) == 1)
}

// CanonUint parses a canonical base-10 uint64 no greater than max:
// digits only, no sign, no leading zeros except "0" itself — the one
// spelling the encoders produce, so decode→re-encode is the identity.
func CanonUint(tok string, max uint64) (uint64, error) {
	v, err := strconv.ParseUint(tok, 10, 64)
	if err != nil || !canonMagnitude(tok) {
		return 0, fmt.Errorf("%q is not a canonical unsigned integer", tok)
	}
	if v > max {
		return 0, fmt.Errorf("%d exceeds cap %d", v, max)
	}
	return v, nil
}

// CanonInt is CanonUint for int64; negatives are "-" plus a canonical
// non-zero magnitude.
func CanonInt(tok string) (int64, error) {
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil && canonMagnitude(strings.TrimPrefix(tok, "-")) && tok != "-0" {
		return v, nil
	}
	return 0, fmt.Errorf("%q is not a canonical integer", tok)
}
