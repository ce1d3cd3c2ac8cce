package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// sampleMsgs covers every verb in the vocabulary.
func sampleMsgs() []Msg {
	return []Msg{
		{Verb: "hello", Args: []string{Proto, "worker", "abc123"}},
		{Verb: "welcome", Args: []string{"abc123"}},
		{Verb: "reject", Payload: []byte("no thanks")},
		{Verb: "lease", Args: []string{"1", "0"}, Payload: []byte("tempest-point v4\n")},
		{Verb: "heartbeat", Args: []string{"7"}},
		{Verb: "result", Args: []string{"1"}, Payload: []byte("abc")},
		{Verb: "fail", Args: []string{"2"}, Payload: []byte("oops")},
		{Verb: "bye"},
	}
}

func TestWireRoundTrip(t *testing.T) {
	// Each message individually, then the whole conversation as one
	// stream — framing must self-delimit.
	var stream bytes.Buffer
	for _, m := range sampleMsgs() {
		stream.Write(m.Encode())
	}
	br := bufio.NewReader(&stream)
	for i, want := range sampleMsgs() {
		got, err := ReadMsg(br)
		if err != nil {
			t.Fatalf("msg %d (%s): %v", i, want.Verb, err)
		}
		if got.Verb != want.Verb || !reflect.DeepEqual(got.Args, want.Args) || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("msg %d round trip changed: %+v -> %+v", i, want, got)
		}
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Errorf("msg %d re-encode differs", i)
		}
	}
	if _, err := ReadMsg(br); err != io.EOF {
		t.Errorf("stream end: got %v, want io.EOF", err)
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"unknown verb":       "frobnicate 1\n",
		"missing args":       "hello tempest-fleet/2\n",
		"extra args":         "bye now\n",
		"double space":       "heartbeat  2\n",
		"trailing space":     "heartbeat 2 \n",
		"leading space":      " heartbeat 2\n",
		"noncanonical len":   "result 1 03\nabc\n",
		"negative length":    "result 1 -3\nabc\n",
		"huge payload":       "result 1 999999999999\n",
		"unterminated":       "result 1 3\nabcX",
		"carriage return":    "heartbeat 2\r\n",
		"oversized line":     "heartbeat " + strings.Repeat("9", maxLine) + "\n",
		"empty line":         "\n",
		"payload no newline": "result 1 3\nab",
	}
	for name, in := range cases {
		_, err := ReadMsg(bufio.NewReader(strings.NewReader(in)))
		if err == nil {
			t.Errorf("%s: decoded without error", name)
			continue
		}
		var fe *Error
		if !errors.As(err, &fe) && err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Errorf("%s: unstructured error %T: %v", name, err, err)
		}
	}
}

// edgeLines sit on the boundaries of the eight verbs' specs: an empty
// payload, a payload one byte over the cap, an id no uint64 holds (ids
// are tokens to the codec), and lines one token short or long.
var edgeLines = []string{
	"lease 1 0 0\n\n",
	"result 1 16777217\n",
	"heartbeat 18446744073709551616\n",
	"hello tempest-fleet/2 worker\n",
	"welcome\n",
	"bye bye\n",
	"fail 2 4\noops",
	"reject 0\n\n",
}

// TestWireVocabulary pins the verb count: the protocol is a handshake,
// one verb pair, a heartbeat and a close. A line of any tempest-fleet/1
// verb this protocol dropped is an unknown verb, not a near miss.
func TestWireVocabulary(t *testing.T) {
	if len(verbs) != 8 {
		t.Errorf("verbs has %d entries, want 8", len(verbs))
	}
	for _, line := range []string{"ready 2\n", "submit 3 1000\n", "point 0 2\nhi\n", "end\n",
		"prog 1 3\n", "done 0 0\n\n", "perr 0 3\nbad\n", "complete\n"} {
		_, err := ReadMsg(bufio.NewReader(strings.NewReader(line)))
		var fe *Error
		if !errors.As(err, &fe) || !strings.Contains(fe.Msg, "unknown verb") {
			t.Errorf("%q: err = %v, want an unknown-verb *Error", line, err)
		}
	}
}

func TestErrorFormat(t *testing.T) {
	e := errf("verify", "worker-1", "em3d/typhoon-stache/4K", "key mismatch")
	for _, want := range []string{"fleet:", "verify", "worker-1", "em3d/typhoon-stache/4K", "key mismatch"} {
		if !strings.Contains(e.Error(), want) {
			t.Errorf("error %q missing %q", e.Error(), want)
		}
	}
}

// FuzzFleetMessage pins that decoding is total: arbitrary bytes produce
// either a structured *Error (or clean EOF), or a message whose
// canonical re-encoding is exactly the bytes consumed — never a panic,
// never a lossy parse. The corpus under testdata keeps one line of each
// tempest-fleet/1 verb this protocol dropped (ready, submit, point, end,
// prog, done-empty, perr, complete): they seed the unknown-verb path.
func FuzzFleetMessage(f *testing.F) {
	for _, m := range sampleMsgs() {
		f.Add(m.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte("frobnicate 1\n"))
	f.Add([]byte("result 1 99\nabc\n"))
	f.Add([]byte("heartbeat 007\n"))
	for _, edge := range edgeLines {
		f.Add([]byte(edge))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMsg(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			var fe *Error
			if !errors.As(err, &fe) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("unstructured error %T: %v", err, err)
			}
			return
		}
		enc := m.Encode() // must not panic on anything ReadMsg accepted
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("re-encode is not the consumed prefix:\ninput %q\nenc   %q", data, enc)
		}
	})
}
