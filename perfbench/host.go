package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostMeter samples the machine's CPU time counters (/proc/stat) every
// 50 ms, to tell which parts of a phase the hypervisor disturbed.
//
// The benchmark runs on small shared virtual machines. Steal time — a
// vCPU ready to run while the host runs someone else — comes in bursts
// of up to a third of the CPU for a fraction of a second and stalls
// daemon and generator alike; a run that happens to meet more of it
// reports latencies and capacity the program had no part in. Each
// phase is therefore cut into quarter-second windows and its metrics
// come from the quietest 60% of them, by steal share: the same rule for
// every commit, which keeps the sample count fixed and drops only the
// host's noise.
type hostMeter struct {
	mu    sync.Mutex
	at    []time.Time
	steal []uint64
	total []uint64
	stop  chan struct{}
	done  chan struct{}
}

func startHostMeter() *hostMeter {
	h := &hostMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				h.sample()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *hostMeter) close() {
	close(h.stop)
	<-h.done
}

// sample appends one reading of the aggregate cpu line; a host without
// /proc/stat reads as never stolen from.
func (h *hostMeter) sample() {
	steal, total := readCPUStat()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.at = append(h.at, time.Now())
	h.steal = append(h.steal, steal)
	h.total = append(h.total, total)
}

func readCPUStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of the machine's CPU time stolen between the
// readings nearest to t0 and t1.
func (h *hostMeter) stealShare(t0, t1 time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.at), func(k int) bool { return !h.at[k].Before(t0) })
	j := sort.Search(len(h.at), func(k int) bool { return h.at[k].After(t1) }) - 1
	if i >= len(h.at) || j <= i || h.total[j] == h.total[i] {
		return 0
	}
	return float64(h.steal[j]-h.steal[i]) / float64(h.total[j]-h.total[i])
}

type interval struct{ from, to time.Time }

func (iv interval) has(t time.Time) bool { return !t.Before(iv.from) && t.Before(iv.to) }

const (
	// quietWindow is the length of the windows a phase is cut into;
	// quietShare the share of them its metrics are read from.
	quietWindow = 250 * time.Millisecond
	quietShare  = 0.6
)

// quietWindows cuts [start, start+d) into quietWindow windows and
// returns the quietShare of them with the least steal, in time order.
func (h *hostMeter) quietWindows(start time.Time, d time.Duration) []interval {
	n := max(1, int(d/quietWindow))
	type win struct {
		iv    interval
		steal float64
	}
	ws := make([]win, n)
	for i := range ws {
		from := start.Add(d * time.Duration(i) / time.Duration(n))
		to := start.Add(d * time.Duration(i+1) / time.Duration(n))
		ws[i] = win{interval{from, to}, h.stealShare(from, to)}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].steal < ws[b].steal })
	ws = ws[:max(1, int(float64(n)*quietShare+0.5))]
	sort.Slice(ws, func(a, b int) bool { return ws[a].iv.from.Before(ws[b].iv.from) })
	out := make([]interval, len(ws))
	for i, w := range ws {
		out[i] = w.iv
	}
	return out
}

// stealIn is the mean steal share over the windows.
func (h *hostMeter) stealIn(ivs []interval) float64 {
	var sum float64
	for _, iv := range ivs {
		sum += h.stealShare(iv.from, iv.to)
	}
	return ratio(sum, float64(len(ivs)))
}

func inAny(ivs []interval, t time.Time) bool {
	for _, iv := range ivs {
		if iv.has(t) {
			return true
		}
	}
	return false
}

func length(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		d += iv.to.Sub(iv.from)
	}
	return d
}
