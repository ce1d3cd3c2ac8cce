package fleet

import (
	"fmt"
	"net"
	"os"
	"strings"
	"time"
)

// network picks the transport by address shape: anything containing a
// "/" is a Unix socket path, everything else is a TCP host:port. Tests
// and CI use sockets to dodge port collisions; real fleets use TCP.
func network(addr string) string {
	if strings.Contains(addr, "/") {
		return "unix"
	}
	return "tcp"
}

// Listen opens the coordinator's listener, clearing a stale socket file
// left by a killed run — one nothing answers on. A socket a live
// coordinator is serving is refused, not stolen from under its workers.
func Listen(addr string) (net.Listener, error) {
	nw := network(addr)
	if nw == "unix" {
		if fi, err := os.Stat(addr); err == nil && fi.Mode()&os.ModeSocket != 0 {
			if conn, err := Dial(addr); err == nil {
				conn.Close()
				return nil, fmt.Errorf("listen unix %s: a live coordinator is already serving this socket", addr)
			}
			os.Remove(addr)
		}
	}
	return net.Listen(nw, addr)
}

// Dial connects to a coordinator address.
func Dial(addr string) (net.Conn, error) {
	return net.Dial(network(addr), addr)
}

// DialRetry dials until the coordinator is listening or the deadline
// passes — workers typically start in parallel with the coordinator. A
// timeout <= 0 is a single attempt.
func DialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := Dial(addr)
		if err == nil {
			return conn, nil
		}
		if timeout <= 0 {
			return nil, errf("dial", addr, "", "no coordinator: %v", err)
		}
		if time.Now().After(deadline) {
			return nil, errf("dial", addr, "", "no coordinator after %v: %v", timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
