package wiretext

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// record is a small format exercising every accessor: a required line,
// an optional one, a repeated one, a rest-of-line value, every number
// kind, a token list, and the end of input.
type record struct {
	name  string
	note  string
	rows  [][2]uint64
	n     int
	on    bool
	sizes []int
}

func readRecord(text string) (record, error) {
	var rec record
	r := NewReader(text, "record")
	rec.name = r.Line("name").Token()
	if r.Optional("note") {
		rec.note = r.Rest()
	}
	for r.Optional("row") {
		rec.rows = append(rec.rows, [2]uint64{r.UintMax(99), r.Uint()})
	}
	r.Line("nums")
	rec.n, rec.on = r.Int(), r.Bool()
	r.Line("sizes")
	for r.More() {
		rec.sizes = append(rec.sizes, r.Int())
	}
	r.End()
	return rec, r.Err()
}

// encode spells a record the one way readRecord accepts.
func (rec record) encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "name %s\n", rec.name)
	if rec.note != "" {
		fmt.Fprintf(&b, "note %s\n", rec.note)
	}
	for _, row := range rec.rows {
		fmt.Fprintf(&b, "row %d %d\n", row[0], row[1])
	}
	fmt.Fprintf(&b, "nums %d %t\nsizes", rec.n, rec.on)
	for _, s := range rec.sizes {
		fmt.Fprintf(&b, " %d", s)
	}
	b.WriteString("\n")
	return b.String()
}

// FuzzReader pins the package's contract on a format of its own, so the
// three real decoders are not its only coverage: whatever text arrives,
// the reader fails with a *Error or has accepted the one spelling of
// the record it returns.
func FuzzReader(f *testing.F) {
	f.Add(goodRecord)
	f.Add("name a\nnums 0 false\nsizes\n")
	f.Add(strings.Replace(goodRecord, "row 1 10", "row 01 10", 1))
	f.Add(strings.Replace(goodRecord, "name alpha", "name  alpha", 1))
	f.Add(goodRecord[:len(goodRecord)-1])
	f.Fuzz(func(t *testing.T, text string) {
		rec, err := readRecord(text)
		if err != nil {
			var we *Error
			if !errors.As(err, &we) || we.Noun != "record" || we.Line < 1 || we.Msg == "" {
				t.Fatalf("unstructured error %#v", err)
			}
			return
		}
		if enc := rec.encode(); enc != text {
			t.Fatalf("accepted non-canonical input:\n in  %q\n out %q", text, enc)
		}
	})
}

const goodRecord = "name alpha\nnote two  words \nrow 1 10\nrow 99 18446744073709551615\nnums -7 true\nsizes 4 16\n"

func TestReaderAccessors(t *testing.T) {
	rec, err := readRecord(goodRecord)
	if err != nil {
		t.Fatal(err)
	}
	if rec.name != "alpha" || rec.note != "two  words " || len(rec.rows) != 2 || rec.rows[1] != [2]uint64{99, 1<<64 - 1} ||
		rec.n != -7 || !rec.on || len(rec.sizes) != 2 || rec.sizes[1] != 16 {
		t.Errorf("decoded %+v", rec)
	}
	// The optional and repeated lines may be absent; the token list empty.
	if rec, err := readRecord("name a\nnums 0 false\nsizes\n"); err != nil || rec.note != "" || rec.rows != nil || rec.sizes != nil {
		t.Errorf("minimal record: %+v, %v", rec, err)
	}
}

// TestReaderRejects walks one mutation per rule: each must fail, on the
// line named, with the message fragment named.
func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name, old, new string
		line           int
		want           string
	}{
		{"missing required line", "name alpha\n", "", 1, `expected "name" line`},
		{"key is a prefix only", "name alpha", "namealpha", 1, `expected "name" line`},
		{"leading space", "name alpha", " name alpha", 1, `expected "name" line`},
		{"double space", "name alpha", "name  alpha", 1, "malformed name line"},
		{"trailing space", "name alpha", "name alpha ", 1, "malformed name line"},
		{"missing token", "name alpha", "name", 1, "malformed name line"},
		{"extra token", "name alpha", "name alpha beta", 1, "malformed name line"},
		{"tab in token", "name alpha", "name al\tpha", 1, "malformed name line"},
		{"carriage return", "name alpha", "name alpha\r", 1, "malformed name line"},
		{"NUL in token", "name alpha", "name al\x00pha", 1, "malformed name line"},
		{"DEL in token", "name alpha", "name al\x7fpha", 1, "malformed name line"},
		{"empty rest-of-line", "note two  words ", "note ", 2, "empty note line"},
		{"bare rest-of-line key", "note two  words ", "note", 2, "malformed note line"},
		{"cap exceeded", "row 99 ", "row 100 ", 4, "100 exceeds cap 99"},
		{"leading zero", "row 1 10", "row 01 10", 3, `"01" is not a canonical unsigned integer`},
		{"plus sign", "row 1 10", "row 1 +10", 3, `"+10" is not a canonical unsigned integer`},
		{"negative unsigned", "row 1 10", "row 1 -10", 3, "not a canonical unsigned integer"},
		{"uint64 overflow", "18446744073709551615", "18446744073709551616", 4, "not a canonical unsigned integer"},
		{"negative zero", "nums -7", "nums -0", 5, `"-0" is not a canonical integer`},
		{"numeric bool", "true", "1", 5, `"1" is not a boolean`},
		{"trailing line", "sizes 4 16\n", "sizes 4 16\nextra\n", 7, `unexpected line "extra"`},
		{"no final newline", "sizes 4 16\n", "sizes 4 16", 6, "missing trailing newline"},
		{"truncated", "nums -7 true\nsizes 4 16\n", "", 5, `truncated record: missing "nums" line`},
	}
	for _, tc := range cases {
		text := strings.Replace(goodRecord, tc.old, tc.new, 1)
		if text == goodRecord {
			t.Fatalf("%s: mutation did not apply", tc.name)
		}
		_, err := readRecord(text)
		var we *Error
		if !errors.As(err, &we) {
			t.Errorf("%s: err = %v, want a *wiretext.Error", tc.name, err)
			continue
		}
		if we.Noun != "record" || we.Line != tc.line || !strings.Contains(we.Msg, tc.want) {
			t.Errorf("%s: got line %d %q, want line %d mentioning %q", tc.name, we.Line, we.Msg, tc.line, tc.want)
		}
		if !strings.HasPrefix(err.Error(), "record line ") {
			t.Errorf("%s: error text %q does not name the format and line", tc.name, err)
		}
	}
}

// TestReaderErrorIsSticky: after the first failure every accessor is a
// no-op returning zero values, loops over Optional end, and the error
// reported is still the first one — line number included.
func TestReaderErrorIsSticky(t *testing.T) {
	r := NewReader("a 1\nb x\nc 3\nc 4\n", "record")
	if got := r.Line("a").Uint(); got != 1 {
		t.Fatalf("a = %d", got)
	}
	if got := r.Line("b").Uint(); got != 0 {
		t.Errorf("failed Uint returned %d, want 0", got)
	}
	first := r.Err()
	if first == nil {
		t.Fatal("non-numeric token accepted")
	}
	n := 0
	for r.Optional("c") {
		n++
	}
	tok, rest := r.Line("missing").Token(), r.Rest()
	r.Failf("a later failure")
	r.End()
	if n != 0 || tok != "" || rest != "" || r.More() || r.Int() != 0 || r.Bool() {
		t.Error("accessors kept consuming after a failure")
	}
	var we *Error
	if r.Err() != first || !errors.As(first, &we) || we.Line != 2 || !strings.Contains(we.Msg, `b: "x" is not a canonical`) {
		t.Errorf("Err() = %v, want the first failure on line 2 kept", r.Err())
	}
}

func TestFailfNamesCurrentLine(t *testing.T) {
	r := NewReader("a 1\nb 2\n", "record")
	r.Line("a").Uint()
	if r.Line("b").Uint() != 2 {
		t.Fatal("b")
	}
	r.Failf("b %d out of order", 2)
	if got := r.Err().Error(); got != "record line 2: b 2 out of order" {
		t.Errorf("Err() = %q", got)
	}
}

func TestOneLine(t *testing.T) {
	r := OneLine("lease 17 30000 412", "message")
	if r.Token() != "lease" || r.Token() != "17" || r.Uint() != 30000 || r.UintMax(1<<20) != 412 {
		t.Fatal("tokens misread")
	}
	if r.End(); r.Err() != nil {
		t.Fatal(r.Err())
	}
	for _, line := range []string{"", " lease 1", "lease  1", "lease 1 ", "lease\t1", "lease 1 2 3 4 5"} {
		r := OneLine(line, "message")
		r.Token()
		r.Token()
		r.End()
		// A lone line has no number: the message stands alone.
		if err := r.Err(); err == nil || !strings.HasPrefix(err.Error(), "malformed message line ") {
			t.Errorf("OneLine(%q): err = %v", line, err)
		}
	}
}

func TestSealUnseal(t *testing.T) {
	const magic = "tempest-thing v2"
	var b bytes.Buffer
	b.WriteString(magic + "\nsize 3\n")
	sealed := append([]byte(nil), Seal(&b)...)
	r := Unseal(sealed, magic, "thing")
	if got := r.Line("size").Uint(); got != 3 {
		t.Errorf("size = %d", got)
	}
	// Numbering counts the magic as line 1.
	r.Failf("boom")
	if err := r.Err(); err.Error() != "thing line 2: boom" {
		t.Errorf("Err() = %q", err)
	}
	r = Unseal(sealed, magic, "thing")
	if r.End(); r.Err() == nil || !strings.Contains(r.Err().Error(), `unexpected line "size 3"`) {
		t.Errorf("unread payload line: %v", r.Err())
	}

	reseal := func(text string) []byte {
		var b bytes.Buffer
		b.WriteString(text)
		return append([]byte(nil), Seal(&b)...)
	}
	flipped := bytes.Replace(sealed, []byte("size 3"), []byte("size 4"), 1)
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"empty":              {nil, "empty thing"},
		"no final newline":   {sealed[:len(sealed)-1], "truncated thing: missing trailing newline"},
		"no checksum line":   {[]byte(magic + "\nsize 3\n"), "truncated thing: missing checksum line"},
		"flipped byte":       {flipped, "checksum mismatch"},
		"uppercase sum":      {[]byte(strings.ToUpper(string(sealed))), "not a valid thing"},
		"foreign text":       {[]byte("hello\n"), "not a valid thing (bad magic line)"},
		"skew, unsealed":     {[]byte("tempest-thing v9\nopaque\n"), "version skew"},
		"skew, sealed":       {reseal("tempest-thing v1\nsize 3\n"), `version skew: thing format "tempest-thing v1", want "tempest-thing v2"`},
		"foreign, sealed":    {reseal("other-thing v2\nsize 3\n"), "not a valid thing (bad magic line)"},
		"checksum line only": {reseal(""), "not a valid thing (bad magic line)"},
	} {
		r := Unseal(tc.data, magic, "thing")
		r.Line("size").Uint()
		var we *Error
		if !errors.As(r.Err(), &we) || we.Line != 0 || !strings.Contains(we.Msg, tc.want) {
			t.Errorf("%s: err = %v, want a framing error mentioning %q", name, r.Err(), tc.want)
		}
	}
}
