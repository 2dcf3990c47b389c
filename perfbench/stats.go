package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// jobP50 is job_p50_ms for a workload whose round mixes jobs of very
// different cost: the geometric mean over the jobs of each job's median
// latency. A median over all the jobs' latencies would sit between the
// two jobs in the middle of the cost order and miss a change to any other.
func jobP50(byJob [][]float64) float64 {
	s := 0.0
	for _, l := range byJob {
		s += math.Log(median(l))
	}
	return math.Exp(s / float64(len(byJob)))
}

// flatten concatenates per-job latencies.
func flatten(byJob [][]float64) []float64 {
	var all []float64
	for _, l := range byJob {
		all = append(all, l...)
	}
	return all
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time of process pid from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, starting at field 3.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns VmHWM (peak resident set) of process pid ("self" for
// this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// rounds hands out the operations of a closed-loop window in whole rounds:
// operation k belongs to round k/size at position k%size. Once the
// deadline passes, the round in progress is finished and no new round
// starts, so every window attempts the same mix of operations. It also
// records when each round's last operation ends, for rate.
type rounds struct {
	mu       sync.Mutex
	size     int
	next     int
	stop     int // operations below stop are handed out; -1 until decided
	start    time.Time
	deadline time.Time
	left     []int       // per round: operations not yet finished
	ends     []time.Time // per round: when its last operation finished
}

func newRounds(size int, d time.Duration) *rounds {
	now := time.Now()
	return &rounds{size: size, stop: -1, start: now, deadline: now.Add(d)}
}

// take returns the next operation index, or false once the window is over.
func (r *rounds) take() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop < 0 && !time.Now().Before(r.deadline) {
		done := (r.next + r.size - 1) / r.size
		if done == 0 {
			done = 1 // every window runs at least one round
		}
		r.stop = done * r.size
	}
	if r.stop >= 0 && r.next >= r.stop {
		return 0, false
	}
	k := r.next
	r.next++
	return k, true
}

// total is the number of operations handed out; call it after every
// taker has returned.
func (r *rounds) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// finish records that operation k has ended.
func (r *rounds) finish(k int) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	i := k / r.size
	for len(r.left) <= i {
		r.left = append(r.left, r.size)
		r.ends = append(r.ends, time.Time{})
	}
	if r.left[i]--; r.left[i] == 0 {
		r.ends[i] = now
	}
}

// rate is a workload's jobs_per_s: the median, over blocks of per
// consecutive finished rounds, of perRound jobs a round times the block's
// rounds over the block's wall time. A block starts when the one before it
// ended (the first when the window opened), and a round ends when its last
// operation does; a block whose rounds all ended before that passes its
// rounds on to the next. A run too short for one block is one block. Host
// contention on a shared machine comes in bursts that stretch a few
// rounds; the median leaves them out where a mean over the window would
// not.
func (r *rounds) rate(per int, perRound float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0 // finished rounds, in order
	for n < len(r.left) && r.left[n] == 0 {
		n++
	}
	if n == 0 {
		return 0
	}
	if per > n {
		per = n
	}
	var rates []float64
	last := r.start
	carried := 0 // rounds of blocks that took no time
	for b := 0; b+per <= n; b += per {
		end := last
		for _, t := range r.ends[b : b+per] {
			if t.After(end) {
				end = t
			}
		}
		carried += per
		if !end.After(last) {
			continue
		}
		rates = append(rates, float64(carried)*perRound/end.Sub(last).Seconds())
		last, carried = end, 0
	}
	return median(rates)
}

// runClosedLoop runs clients goroutines that each take operations from r
// and call op until the window ends or ctx is cancelled, and returns once
// all have finished, with ctx's error if it was cancelled. It tells r when
// each operation ends.
func runClosedLoop(ctx context.Context, clients int, r *rounds, op func(client, k int)) error {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				k, ok := r.take()
				if !ok {
					return
				}
				op(c, k)
				r.finish(k)
			}
		}(c)
	}
	wg.Wait()
	return ctx.Err()
}

// splitmix derives a well-mixed 63-bit seed from a workload seed and an
// index, so per-job seeds depend only on (seed, index).
func splitmix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}
