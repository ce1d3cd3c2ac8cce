package resultcache

import "fmt"

// Error is a structured result-cache failure — a corrupted, truncated,
// or version-skewed on-disk entry, or an I/O failure on the cache
// directory. Cache lookups return (not panic) an *Error so the harness
// can fall back to simulation and count the event. The same
// structured-error contract as *network.Error and *dirnnb.Error.
type Error struct {
	// Op names the failing operation: "decode", "read" or "write".
	Op string
	// Path is the on-disk entry involved, when there is one.
	Path string
	// Msg describes the condition.
	Msg string
}

func (e *Error) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("resultcache: %s %s: %s", e.Op, e.Path, e.Msg)
	}
	return fmt.Sprintf("resultcache: %s: %s", e.Op, e.Msg)
}
