package trace

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
)

// ParseKind parses a Kind's String form. Unknown-but-valid kinds round-
// trip through the "kind(N)" notation, so a corpus recorded by a newer
// build (with kinds this build does not name) still parses.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "block-fault":
		return KBlockFault, nil
	case "page-fault":
		return KPageFault, nil
	case "msg-send":
		return KMsgSend, nil
	case "msg-recv":
		return KMsgRecv, nil
	case "resume":
		return KResume, nil
	case "tag-change":
		return KTagChange, nil
	case "net-send":
		return KNetSend, nil
	case "net-deliver":
		return KNetDeliver, nil
	case "net-arrive":
		return KNetArrive, nil
	}
	if rest, ok := strings.CutPrefix(s, "kind("); ok {
		if num, ok := strings.CutSuffix(rest, ")"); ok {
			n, err := strconv.ParseUint(num, 10, 8)
			if err != nil {
				return 0, fmt.Errorf("trace: bad kind %q: %v", s, err)
			}
			return Kind(n), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown kind %q", s)
}

// ParseEvent parses one Event.String line back into an Event. The format
// is the committed-corpus event encoding, so String and ParseEvent are
// exact inverses: a line is accepted only if the event it parses to
// prints as that line again — column padding, digit spelling and all
// (see the round-trip tests and FuzzTraceParse).
func ParseEvent(line string) (Event, error) {
	f := strings.Fields(line)
	if len(f) != 5 {
		return Event{}, fmt.Errorf("trace: event line has %d fields, want 5: %q", len(f), line)
	}
	t, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad time in %q: %v", line, err)
	}
	ns, ok := strings.CutPrefix(f[1], "node")
	if !ok {
		return Event{}, fmt.Errorf("trace: bad node field %q in %q", f[1], line)
	}
	node, err := strconv.ParseInt(ns, 10, 32)
	if err != nil || node < 0 {
		return Event{}, fmt.Errorf("trace: bad node field %q in %q", f[1], line)
	}
	kind, err := ParseKind(f[2])
	if err != nil {
		return Event{}, fmt.Errorf("trace: %v in %q", err, line)
	}
	vs, ok := strings.CutPrefix(f[3], "va=0x")
	if !ok {
		return Event{}, fmt.Errorf("trace: bad va field %q in %q", f[3], line)
	}
	va, err := strconv.ParseUint(vs, 16, 64)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad va field %q in %q: %v", f[3], line, err)
	}
	as, ok := strings.CutPrefix(f[4], "aux=")
	if !ok {
		return Event{}, fmt.Errorf("trace: bad aux field %q in %q", f[4], line)
	}
	aux, err := strconv.ParseUint(as, 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad aux field %q in %q: %v", f[4], line, err)
	}
	e := Event{T: sim.Time(t), Node: int(node), Kind: kind, VA: mem.VA(va), Aux: aux}
	var buf [96]byte
	if string(e.appendText(buf[:0])) != line {
		return Event{}, fmt.Errorf("trace: event line %q is not in canonical form %q", line, e.String())
	}
	return e, nil
}
