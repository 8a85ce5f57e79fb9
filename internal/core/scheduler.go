package core

import (
	"sort"
	"time"

	"dragonfly/internal/video"
)

// fetchEntry is one slot of the ordered primary-stream fetch list: a
// candidate at its assigned quality.
type fetchEntry struct {
	c *candidate
	q int
}

// scheduler runs Algorithm 1: a series of quality rounds in which tiles are
// promoted by utility gain, inserted at the total-utility-maximizing
// position, and later entries are demoted or dropped when insertions push
// them past their deadlines.
//
// A round tries ~C insertions and each one needs the arrival, the gain and
// the running gain sums of every listed entry. Those only change where the
// list changes, so the scheduler keeps them beside the list (arr,
// prefixGain, totals — refreshed from the first changed slot by repair) and
// an attempt recomputes only what depends on the candidate being placed.
// Every sum is accumulated in one fixed order and shape, so a cached value
// is the bits a from-scratch evaluation would produce; the from-scratch
// evaluation lives on as the test oracle (scheduler_ref_test.go).
//
// The inner loops map arrivals to window frames by walking from the
// neighbouring entry's frame, and each knows which way its arrivals move:
// down along the shifted-suffix pass, up behind a removed entry, up from the
// last kept entry in repair (frameDown, frameUp).
//
// Like window, a scheduler is a reusable scratch arena: reset() rebinds it
// to the current window and sizes every working buffer for it — a
// candidate is listed at most once, so nothing grows during a run — and the
// buffers are retained across decisions: steady-state runs allocate nothing.
type scheduler struct {
	w       *window
	minQ    int
	maxQ    int
	baseOff time.Duration // transfer backlog ahead of the primary stream

	// floorTotal is the total utility with every candidate skipped; listed
	// entries contribute their gain over that floor, making list
	// evaluation O(list length).
	floorTotal float64

	list []fetchEntry
	// The evaluation of list, kept current by repair:
	//   arr[j]        instant list[j] completes
	//   prefixGain[j] summed gain of list[:j], ((0 + u0) - f0 + u1) - f1 ...
	//   totals[j]     floorTotal + (u0 - f0) + (u1 - f1) ... over list[:j]
	// where u is an entry's utility at its arrival and f its skip floor.
	// prefixGain and totals hold the same quantity in the two summation
	// shapes the insertion scan and the list total have always used.
	arr        []time.Duration
	prefixGain []float64
	totals     []float64

	// Reusable run scratch.
	order       []*candidate
	suffixShift []float64
	shiftFrame  []int32
	sorter      gainSorter

	// Set by bestInsertion for a candidate that is already listed (at
	// c.slot): the arrival of each entry behind it, list[c.slot+1+i], and
	// the prefix gain through it, once c is removed — tailArr[i] and
	// tailPrefix[i]. Everything ahead of the slot is read from arr and
	// prefixGain in place.
	tailArr    []time.Duration
	tailPrefix []float64
}

// reset rebinds the scheduler to a window for a fresh run, keeping the
// scratch buffers of previous runs. It stores on each candidate what a run
// asks for thousands of times and never changes: its skip floor and its
// transfer time at each quality.
func (s *scheduler) reset(w *window, minQ video.Quality, baseOffset time.Duration) {
	s.w = w
	s.minQ = int(minQ)
	s.maxQ = video.NumQualities - 1
	s.baseOff = baseOffset
	s.floorTotal = 0
	for _, c := range w.cands {
		c.floor = c.full * c.maskScore
		s.floorTotal += c.floor
		for q := range c.size {
			c.xfer[q] = s.transferTime(c.size[q])
		}
	}
	n := len(w.cands) // the longest the list can get
	s.list = grow(s.list, n)[:0]
	s.arr = grow(s.arr, n)[:0]
	s.prefixGain = grow(s.prefixGain, n+1)[:1]
	s.totals = grow(s.totals, n+1)[:1]
	s.prefixGain[0] = 0
	s.totals[0] = s.floorTotal
	// Scratch the attempts cut to the length they need.
	s.tailArr = grow(s.tailArr, n)
	s.tailPrefix = grow(s.tailPrefix, n)
	s.suffixShift = grow(s.suffixShift, n+1)
	s.shiftFrame = grow(s.shiftFrame, n)
}

func (s *scheduler) transferTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / s.w.rate * float64(time.Second))
}

// totalUtility is the utility of the whole assignment: every listed tile at
// its arrival instant, plus the skip floor of unlisted candidates.
func (s *scheduler) totalUtility() float64 {
	return s.totals[len(s.list)]
}

// run executes the quality rounds and returns the final ordered fetch list.
// The returned slice aliases the scheduler's reusable buffers and is valid
// until the next reset/run.
func (s *scheduler) run() []fetchEntry {
	s.order = append(s.order[:0], s.w.cands...)
	best := s.totalUtility()

	for q := s.minQ; q <= s.maxQ; q++ {
		// Sort candidates by the optimistic utility gain of promoting them
		// to quality q (gain if the tile arrived immediately). The key is
		// precomputed — assignments only change after the sort.
		for _, c := range s.order {
			c.sortKey = s.optimisticGain(c, q)
		}
		s.sorter.c = s.order
		sort.Stable(&s.sorter)
		s.sorter.c = nil
		for _, c := range s.order {
			if c.assigned >= q {
				continue
			}
			if s.optimisticGain(c, q) <= 0 {
				continue
			}
			pos, ok := s.bestInsertion(c, q, best)
			if !ok {
				continue
			}
			best = s.repair(s.insertAt(c, q, pos))
		}
	}
	return s.list
}

// gainSorter sorts the round's candidate order by descending precomputed
// gain; sort.Stable keeps ties in prior order, matching the previous
// sort.SliceStable semantics without its closure allocations.
type gainSorter struct{ c []*candidate }

func (s *gainSorter) Len() int           { return len(s.c) }
func (s *gainSorter) Swap(i, j int)      { s.c[i], s.c[j] = s.c[j], s.c[i] }
func (s *gainSorter) Less(i, j int) bool { return s.c[i].sortKey > s.c[j].sortKey }

// optimisticGain is the utility gain of moving c to quality q if it could
// arrive instantly — the sort key of Algorithm 1's round ("sort i by
// U_{i,q,t0}").
func (s *scheduler) optimisticGain(c *candidate, q int) float64 {
	cur := c.maskScore
	if c.assigned >= 0 {
		cur = c.qscore[c.assigned]
	}
	return c.full * (c.qscore[q] - cur)
}

// bestInsertion tries c@q at every list position (removing any existing
// entry for c first) and returns the best position if it strictly improves
// on curBest. Inserting c at position p leaves entries before p untouched
// and shifts every later entry's arrival by exactly c's transfer time, so
// one prefix-sum and one shifted-suffix-sum evaluate all positions in O(C)
// — the amortization behind the paper's O(C²Q) bound. The list without c is
// never built: ahead of c's slot it is the list itself, with the list's own
// arrivals and prefix sums, and behind it the entries one slot further on,
// whose arrivals and prefix sums removeListed recomputes into the tail
// scratch. Only the shifted suffix is built per attempt.
func (s *scheduler) bestInsertion(c *candidate, q int, curBest float64) (int, bool) {
	w := s.w
	list := s.list
	n, k := len(list), len(list) // entries without c; c's slot
	if c.inList {
		n, k = n-1, c.slot
		s.removeListed(c)
	}
	dt := c.xfer[q]

	// suffixShift[p]: summed gain of entries from p on, pushed back by dt;
	// shiftFrame[j]: the window frame entry j then arrives in. Arrivals
	// only fall along this pass, so the frame is walked down, not divided
	// out. Entry j of the list without c is list[j] at arr[j] ahead of c's
	// slot and list[j+1] at tailArr[j-k] from it on.
	suffixShift := s.suffixShift[:n+1]
	shiftFrame := s.shiftFrame[:n]
	deadlines := w.deadlines
	suffixShift[n] = 0
	wf := 0
	acc := 0.0
	if n > k {
		tailArr := s.tailArr[:n-k]
		wf = w.arrivalFrame(tailArr[n-k-1] + dt)
		for j := n - 1; j >= k; j-- {
			e := list[j+1]
			wf = frameDown(deadlines, tailArr[j-k]+dt, wf)
			shiftFrame[j] = int32(wf)
			acc = acc + e.c.utilityFrom(e.q, wf) - e.c.floor
			suffixShift[j] = acc
		}
	} else if k > 0 {
		wf = w.arrivalFrame(s.arr[k-1] + dt)
	}
	arr := s.arr[:k]
	for j := k - 1; j >= 0; j-- {
		e := list[j]
		wf = frameDown(deadlines, arr[j]+dt, wf)
		shiftFrame[j] = int32(wf)
		acc = acc + e.c.utilityFrom(e.q, wf) - e.c.floor
		suffixShift[j] = acc
	}

	// c lands at the head of the list, or where entry pos-1 would have been
	// pushed to: positions up to c's slot take the list's own prefix sums,
	// the ones behind it the tail's.
	floor, dq, cumL := c.floor, c.qscore[q]-c.maskScore, c.cumL
	bestTotal := curBest
	bestPos := -1
	wf = w.arrivalFrame(w.t0 + s.baseOff + dt)
	for pos, prefix := range s.prefixGain[:k+1] {
		total := s.floorTotal + prefix +
			(floor + cumL[wf]*dq - floor) +
			suffixShift[pos]
		if total > bestTotal+1e-9 {
			bestTotal = total
			bestPos = pos
		}
		if pos < n {
			wf = int(shiftFrame[pos])
		}
	}
	for pos := k + 1; pos <= n; pos++ {
		total := s.floorTotal + s.tailPrefix[pos-k-1] +
			(floor + cumL[wf]*dq - floor) +
			suffixShift[pos]
		if total > bestTotal+1e-9 {
			bestTotal = total
			bestPos = pos
		}
		if pos < n {
			wf = int(shiftFrame[pos])
		}
	}
	return bestPos, bestPos >= 0
}

// removeListed fills the tail scratch with the arrivals and prefix gains of
// the entries behind listed candidate c as they would be without it: each
// arrives earlier by c's current transfer time — later and later along the
// list, so their frames are walked up.
func (s *scheduler) removeListed(c *candidate) {
	k := c.slot
	tail := s.list[k+1:]
	if len(tail) == 0 {
		return
	}
	w := s.w
	arr, tailArr, tailPrefix := s.arr[k+1:k+1+len(tail)], s.tailArr[:len(tail)], s.tailPrefix[:len(tail)]
	old := c.xfer[s.list[k].q]
	deadlines := w.deadlines
	wf := w.arrivalFrame(arr[0] - old)
	acc := s.prefixGain[k]
	for i, e := range tail {
		at := arr[i] - old
		wf = frameUp(deadlines, at, wf)
		tailArr[i] = at
		acc = acc + e.c.utilityFrom(e.q, wf) - e.c.floor
		tailPrefix[i] = acc
	}
}

// insertAt installs in place the list a successful bestInsertion chose —
// the list without c, with c@q inserted at pos — shifting only the entries
// between c's old slot and pos. It returns the first slot at which the new
// list differs from the old one: everything the scheduler caches about
// earlier slots still holds.
func (s *scheduler) insertAt(c *candidate, q, pos int) int {
	list, from := s.list, pos
	switch k := c.slot; {
	case !c.inList:
		list = list[:len(list)+1]
		copy(list[pos+1:], list[pos:])
	case pos <= k:
		copy(list[pos+1:k+1], list[pos:k])
	default:
		copy(list[k:pos], list[k+1:pos+1])
		from = k
	}
	list[pos] = fetchEntry{c: c, q: q}
	s.list = list
	c.inList = true
	c.assigned = q
	return from
}

// repair applies Algorithm 1's repair to list[from:] — entries whose
// marginal utility fell to zero (their deadline passed due to upstream
// insertions) are demoted quality step by quality step, shrinking their
// transfer time and hence their arrival, and dropped entirely if even the
// lowest primary quality earns nothing — and in the same pass re-evaluates
// the list from that slot. list[:from] must be as the previous repair left
// it. Returns the resulting total utility.
func (s *scheduler) repair(from int) float64 {
	w := s.w
	at := w.t0 + s.baseOff
	if from > 0 {
		at = s.arr[from-1]
	}
	n := len(s.list)
	list, arr, prefixGain, totals := s.list, s.arr[:n], s.prefixGain[:n+1], s.totals[:n+1]
	// An entry completes no earlier than the last one kept (at, in frame
	// wfAt) whatever was demoted or dropped in between, so its frame is
	// walked up from there. The two running sums are the values just
	// stored, carried in registers.
	deadlines := w.deadlines
	wfAt := w.arrivalFrame(at)
	k := from // entries kept so far
	prefix, total := prefixGain[k], totals[k]
	for _, e := range list[from:] {
		c := e.c
		a := at + c.xfer[e.q]
		wf := frameUp(deadlines, a, wfAt)
		gain := c.marginalFrom(e.q, wf)
		for gain <= 0 && e.q > s.minQ {
			e.q--
			a = at + c.xfer[e.q]
			wf = frameUp(deadlines, a, wfAt)
			gain = c.marginalFrom(e.q, wf)
		}
		if gain <= 0 {
			// Dropped: subsequent arrivals move earlier automatically since
			// `at` is not advanced.
			c.inList = false
			c.assigned = -1
			continue
		}
		c.assigned, c.slot = e.q, k
		at, wfAt = a, wf
		u := c.floor + gain // utilityFrom
		list[k] = e
		arr[k] = a
		prefix = prefix + u - c.floor
		total = total + (u - c.floor)
		prefixGain[k+1] = prefix
		totals[k+1] = total
		k++
	}
	s.list, s.arr, s.prefixGain, s.totals = s.list[:k], s.arr[:k], s.prefixGain[:k+1], s.totals[:k+1]
	return total
}
