package gen

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t in a nanosleep system call. A Go timer in an
// otherwise idle process fires from the netpoller's epoll wait, whose
// timeout has millisecond granularity, so time.Sleep would run an open-loop
// sender up to a millisecond late; nanosleep is good to tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR just means waking early: the loop sleeps the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
