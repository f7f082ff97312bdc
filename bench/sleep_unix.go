//go:build unix

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t in nanosleep(2), which wakes within 0.1 ms of
// its deadline here. time.Sleep does not: an idle Go scheduler waits for
// its timers in epoll_wait, whose timeout counts whole milliseconds, so a
// request paced by it is sent up to 1 ms late (median 0.45 ms, measured),
// more than a read takes to answer.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
	}
}
