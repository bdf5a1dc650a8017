package main

import "time"

// calibSink keeps the kernel's result live.
var calibSink uint64

// calibrate times a fixed CPU-and-memory kernel — a xorshift chain,
// then a pseudo-random read-modify-write walk over 8 MB — five times
// and returns the median in ms. It shares no code with the program, so
// it reads the host's speed only: when a workload's figures move
// between runs and this reading moves with them, the host moved.
func calibrate() float64 {
	buf := make([]uint64, 1<<20)
	var reps []float64
	for k := 0; k < 5; k++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 5_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		j := 0
		for i := 0; i < 1_000_000; i++ {
			j = (j*1103515245 + 12345) & (len(buf) - 1)
			x += buf[j]
			buf[j] = x
		}
		calibSink += x
		reps = append(reps, ms(time.Since(start)))
	}
	return median(reps)
}
