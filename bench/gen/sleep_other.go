//go:build !linux

package gen

import "time"

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
