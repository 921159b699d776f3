package main

import (
	"encoding/binary"
	"sync"
	"syscall"
	"time"
)

// The sandbox's speed is not the simulator's. On a shared host the memory
// system is what neighbours slow down: over twelve minutes a fixed
// arithmetic loop held within 4 %, while a fixed pointer chase, a fixed
// allocation loop and dense-bursty's wall swung by 31 %, 35 % and 41 %
// together (block medians, quartile distance ÷ median). Dividing each
// repeat's wall by the chase timed just before and after it left 6.5 %.
// So every timing that carries a regression bound is reported per *nominal*
// host second: wall × nominalLoadNS ÷ the chase's ns per load around it.
// The raw walls and probe readings stay in the set file.

const (
	// probeWords × 4 B = 64 MiB: far beyond the last-level cache, so every
	// load misses it and most miss the TLB.
	probeWords = 1 << 24
	// probeLoads dependent loads are one reading, about 75 ms.
	probeLoads = 1 << 19
	// nominalLoadNS is what one load costs on this sandbox when it is quiet.
	// It only fixes the scale, so that calibrated and raw numbers agree on a
	// quiet host; changing it rescales every bounded timing alike.
	nominalLoadNS = 150.0
)

var (
	probeOnce sync.Once
	probeMem  []byte
	probeAt   uint32
)

// hostNSPerLoad times probeLoads dependent loads through a fixed
// single-cycle permutation (a full-period LCG step, so no stride a
// prefetcher could learn) and returns ns per load. The table is mapped
// outside the Go heap: 64 MiB of live heap would double the collector's
// goal and change how often it runs inside the timed repeats. The -rss-child
// process never calls this, so the table is not in peak_rss_mb.
func hostNSPerLoad() float64 {
	probeOnce.Do(func() {
		var err error
		probeMem, err = syscall.Mmap(-1, 0, 4*probeWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("host probe: " + err.Error()) // no memory for the ruler itself: nothing can be measured
		}
		for i := uint32(0); i < probeWords; i++ {
			binary.LittleEndian.PutUint32(probeMem[4*i:], (i*1664525+1013904223)&(probeWords-1))
		}
	})
	p := probeAt
	t0 := time.Now()
	for i := 0; i < probeLoads; i++ {
		p = binary.LittleEndian.Uint32(probeMem[4*p:])
	}
	ns := float64(time.Since(t0).Nanoseconds())
	probeAt = p // the next reading continues the cycle, on lines this one did not leave in cache
	return ns / probeLoads
}

// nominalSeconds converts a wall measured between two probe readings into
// nominal host seconds.
func nominalSeconds(wallS, nsPerLoadBefore, nsPerLoadAfter float64) float64 {
	return wallS * nominalLoadNS / ((nsPerLoadBefore + nsPerLoadAfter) / 2)
}
