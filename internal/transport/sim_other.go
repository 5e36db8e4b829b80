//go:build !linux

package transport

import "time"

// idleWake is a no-op off Linux: a parked dispatcher wakes on its
// time.Timer alone, so an idle sub-millisecond hop lasts as long as
// the runtime poller's timeout resolution allows (1 ms on Windows).
type idleWake struct{}

func (*idleWake) open()             {}
func (*idleWake) arm(time.Duration) {}
func (*idleWake) close()            {}
