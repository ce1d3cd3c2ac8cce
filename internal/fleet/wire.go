package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"github.com/tempest-sim/tempest/internal/wiretext"
)

// Proto is the protocol version string exchanged in the handshake.
// Any mismatch is rejected before work is leased: a mixed-version
// fleet fails loudly at connect time, never silently mid-sweep.
const Proto = "tempest-fleet/2"

// Wire format: one message is a single line of space-separated tokens
//
//	verb arg1 ... argN [payloadLen]\n
//
// followed, for payload-bearing verbs, by exactly payloadLen raw bytes
// and a trailing '\n'. Lines are capped at maxLine bytes and payloads
// at maxPayload; the payload length is the line's final token and must
// be a canonical decimal. Tokens are non-empty and contain neither
// spaces nor control characters, so Encode∘ReadMsg is the identity on
// every valid message — the property FuzzFleetMessage pins.
const (
	maxLine    = 4096
	maxPayload = 16 << 20
)

// verbSpec fixes each verb's argument count (excluding the payload
// length token) and whether it carries a payload.
type verbSpec struct {
	args    int
	payload bool
}

// verbs is the full protocol vocabulary. After the handshake there is one
// exchange — a lease answered by a result or a fail — and it runs on
// both links: a client leases points to the coordinator exactly as the
// coordinator leases them to a worker.
//
//	connecting peer → coordinator: hello, then bye to close in order
//	coordinator → connecting peer: welcome or reject
//	client → coordinator → worker: lease
//	worker → coordinator → client: result, fail
//	worker → coordinator:          heartbeat
var verbs = map[string]verbSpec{
	"hello":     {args: 3, payload: false}, // hello <proto> <role> <code>
	"welcome":   {args: 1, payload: false}, // welcome <code>
	"reject":    {args: 0, payload: true},  // reject <len> + reason
	"lease":     {args: 2, payload: true},  // lease <id> <timeout-ms> <len> + point
	"heartbeat": {args: 1, payload: false}, // heartbeat <id>
	"result":    {args: 1, payload: true},  // result <id> <len> + cache entry
	"fail":      {args: 1, payload: true},  // fail <id> <len> + error text
	"bye":       {args: 0, payload: false}, // bye (orderly close)
}

// Msg is one decoded protocol message.
type Msg struct {
	Verb    string
	Args    []string
	Payload []byte
}

// Encode renders the message in canonical wire form. It panics on a
// message this package could not itself have produced (unknown verb,
// wrong arity, invalid token) — encoding is always of locally built
// messages, so that is a programming error, not input.
func (m Msg) Encode() []byte {
	spec, ok := verbs[m.Verb]
	if !ok {
		panic("fleet: encode: unknown verb " + m.Verb)
	}
	if len(m.Args) != spec.args {
		panic(fmt.Sprintf("fleet: encode: %s takes %d args, got %d", m.Verb, spec.args, len(m.Args)))
	}
	if !spec.payload && m.Payload != nil {
		panic("fleet: encode: " + m.Verb + " carries no payload")
	}
	var b bytes.Buffer
	b.WriteString(m.Verb)
	for _, a := range m.Args {
		if !wiretext.ValidToken(a) {
			panic(fmt.Sprintf("fleet: encode: invalid %s argument %q", m.Verb, a))
		}
		b.WriteByte(' ')
		b.WriteString(a)
	}
	if spec.payload {
		if len(m.Payload) > maxPayload {
			panic(fmt.Sprintf("fleet: encode: %s payload of %d bytes exceeds cap", m.Verb, len(m.Payload)))
		}
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(len(m.Payload)))
	}
	b.WriteByte('\n')
	if b.Len() > maxLine {
		panic(fmt.Sprintf("fleet: encode: %s line of %d bytes exceeds cap", m.Verb, b.Len()))
	}
	if spec.payload {
		b.Write(m.Payload)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// readLine reads one '\n'-terminated line of at most maxLine bytes
// (newline included). io.EOF at a message boundary is returned as-is;
// EOF mid-line becomes io.ErrUnexpectedEOF.
func readLine(r *bufio.Reader) (string, error) {
	var line []byte
	for {
		b, err := r.ReadByte()
		if err == io.EOF {
			if len(line) == 0 {
				return "", io.EOF
			}
			return "", io.ErrUnexpectedEOF
		}
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return string(line), nil
		}
		line = append(line, b)
		if len(line) >= maxLine {
			return "", errf("decode", "", "", "line exceeds %d bytes", maxLine)
		}
	}
}

// ReadMsg decodes the next message from r. Decoding is total: every
// input yields a Msg, a structured *Error, or io.EOF / io.ErrUnexpectedEOF
// at stream end — never a panic. A returned Msg re-encodes to exactly
// the bytes consumed.
func ReadMsg(r *bufio.Reader) (Msg, error) {
	line, err := readLine(r)
	if err != nil {
		if _, ok := err.(*Error); ok || err == io.EOF || err == io.ErrUnexpectedEOF {
			return Msg{}, err
		}
		return Msg{}, errf("decode", "", "", "read: %v", err)
	}
	// The line's field list (DESIGN.md "Text formats"): the verb, the
	// arguments its spec counts, a capped payload length if it carries
	// one, and nothing after.
	tr := wiretext.OneLine(line, "message")
	m := Msg{Verb: tr.Token()}
	spec, ok := verbs[m.Verb]
	if !ok && tr.Err() == nil {
		return Msg{}, errf("decode", "", "", "unknown verb %q", m.Verb)
	}
	if spec.args > 0 {
		m.Args = make([]string, spec.args)
		for i := range m.Args {
			m.Args[i] = tr.Token()
		}
	}
	var n uint64
	if spec.payload {
		n = tr.UintMax(maxPayload)
	}
	tr.End()
	if err := tr.Err(); err != nil {
		return Msg{}, errf("decode", "", "", "%v", err)
	}
	if spec.payload {
		m.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return Msg{}, io.ErrUnexpectedEOF
		}
		switch b, err := r.ReadByte(); {
		case err != nil:
			return Msg{}, io.ErrUnexpectedEOF
		case b != '\n':
			return Msg{}, errf("decode", "", "", "%s payload not newline-terminated", m.Verb)
		}
	}
	return m, nil
}
