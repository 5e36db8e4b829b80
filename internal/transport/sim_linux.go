package transport

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// idleWake ends the runtime's idle poll at a precise instant. When
// every goroutine is blocked, the runtime sleeps in epoll_wait with a
// timeout in whole milliseconds, rounding any sub-millisecond timer up
// to 1 ms (runtime/netpoll_epoll.go) — so a parked dispatcher would
// stretch every idle 0.2 ms LAN hop to over 1 ms. A timerfd armed to
// the same instant as the dispatcher's time.Timer and registered with
// the netpoller (os.NewFile on a non-blocking descriptor) makes that
// epoll_wait return on time; the runtime then finds the expired
// timer. The descriptor is never read: readiness is its only job.
type idleWake struct {
	f    *os.File // nil when no timerfd could be made: arm is a no-op
	rc   syscall.RawConn
	spec struct{ interval, value syscall.Timespec } // struct itimerspec
	set  func(fd uintptr)                           // built once: arm allocates nothing
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock Go's timers run on

func (w *idleWake) open() {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return // the dispatcher still parks on its timer, to the millisecond
	}
	f := os.NewFile(fd, "sim-idle-wake")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return
	}
	w.f, w.rc = f, rc
	w.set = func(fd uintptr) {
		syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&w.spec)), 0, 0, 0)
	}
}

// arm sets the timerfd to expire d from now (d > 0), replacing any
// earlier setting. Only the dispatcher goroutine calls it. Control
// holds a reference on the descriptor, so a concurrent close waits for
// the syscall instead of racing it onto a reused descriptor number.
func (w *idleWake) arm(d time.Duration) {
	if w.f == nil {
		return
	}
	w.spec.value = syscall.NsecToTimespec(int64(d))
	_ = w.rc.Control(w.set) // fails only once closed, when the dispatcher is exiting
}

func (w *idleWake) close() {
	if w.f != nil {
		w.f.Close()
	}
}
