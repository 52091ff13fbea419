package cpu

import (
	"testing"
	"unsafe"
)

// TestROBLayout pins the hot ROB record: the arrive, issue, wakeup,
// squash and retire loops test it on every visit, so two records share
// a 64-byte cache line. The instruction and prediction state belong in
// robPayload.
func TestROBLayout(t *testing.T) {
	if n := unsafe.Sizeof(robEntry{}); n > 32 {
		t.Fatalf("robEntry is %d bytes, want at most 32", n)
	}
}
