package apps

import (
	"testing"
	"unsafe"

	"github.com/tempest-sim/tempest/internal/mem"
)

// TestOverlayPageIsOnePage: a Backdoor overlay page is exactly a page of
// words, so the allocator serves it from its 4 KiB size class; a written
// bitmap inside it would push every page into the next class up.
func TestOverlayPageIsOnePage(t *testing.T) {
	if got := unsafe.Sizeof(overlayPage{}); got != mem.PageSize {
		t.Errorf("unsafe.Sizeof(overlayPage{}) = %d, want %d", got, mem.PageSize)
	}
}
