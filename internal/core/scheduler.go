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
	spare       []fetchEntry // double buffer: insertAt builds here, then swaps
	order       []*candidate
	suffixShift []float64
	shiftFrame  []int32
	sorter      gainSorter

	// Set by bestInsertion for a candidate that is already listed (at
	// baseSlot): list minus that entry, and its arrivals and prefix gains.
	base       []fetchEntry
	baseSlot   int
	baseArr    []time.Duration
	basePrefix []float64
}

// newScheduler prepares a run over the window. baseOffset accounts for
// masking-stream bytes queued ahead of the primary fetches.
func newScheduler(w *window, minQ video.Quality, baseOffset time.Duration) *scheduler {
	s := &scheduler{}
	s.reset(w, minQ, baseOffset)
	return s
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
	s.spare = grow(s.spare, n)
	s.base = grow(s.base, n)
	s.baseArr = grow(s.baseArr, n)
	s.basePrefix = grow(s.basePrefix, n+1)
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
// — the amortization behind the paper's O(C²Q) bound. The prefix sums of
// an unlisted candidate are the list's own; for a listed one they are
// copied up to its slot and recomputed behind it, where its removal pulls
// arrivals earlier. Only the shifted suffix is built per attempt.
func (s *scheduler) bestInsertion(c *candidate, q int, curBest float64) (int, bool) {
	w := s.w
	base, arrivals, prefixGain := s.list, s.arr, s.prefixGain
	if c.inList {
		base, arrivals, prefixGain = s.withoutListed(c)
	}
	n := len(base)
	dt := c.xfer[q]

	// suffixShift[p]: summed gain of entries from p on, pushed back by dt;
	// shiftFrame[j]: the window frame entry j then arrives in. Arrivals
	// only fall along this pass, so the frame is walked down, not divided
	// out.
	suffixShift := s.suffixShift[:n+1]
	shiftFrame := s.shiftFrame[:n]
	deadlines := w.deadlines
	suffixShift[n] = 0
	wf := 0
	if n > 0 {
		wf = w.arrivalFrame(arrivals[n-1] + dt)
	}
	acc := 0.0
	for j := n - 1; j >= 0; j-- {
		e := base[j]
		wf = frameDown(deadlines, arrivals[j]+dt, wf)
		shiftFrame[j] = int32(wf)
		acc = acc + e.c.utilityFrom(e.q, wf) - e.c.floor
		suffixShift[j] = acc
	}

	// c lands at the head of the list, or where base[pos-1] would have been
	// pushed to.
	floor, dq, cumL := c.floor, c.qscore[q]-c.maskScore, c.cumL
	bestTotal := curBest
	bestPos := -1
	wf = w.arrivalFrame(w.t0 + s.baseOff + dt)
	for pos := 0; ; pos++ {
		total := s.floorTotal + prefixGain[pos] +
			(floor + cumL[wf]*dq - floor) +
			suffixShift[pos]
		if total > bestTotal+1e-9 {
			bestTotal = total
			bestPos = pos
		}
		if pos == n {
			break
		}
		wf = int(shiftFrame[pos])
	}
	return bestPos, bestPos >= 0
}

// withoutListed fills s.base, s.baseArr and s.basePrefix with the list, its
// arrivals and its prefix gains as they would be without listed candidate
// c. Entries ahead of c's slot keep their cached values; entries behind it
// arrive earlier by c's current transfer time — later and later along the
// list, so their frames are walked up.
func (s *scheduler) withoutListed(c *candidate) ([]fetchEntry, []time.Duration, []float64) {
	w := s.w
	n := len(s.list) - 1
	k := 0
	for s.list[k].c != c {
		k++
	}
	s.baseSlot = k
	base, arrivals, prefixGain := s.base[:n], s.baseArr[:n], s.basePrefix[:n+1]
	copy(base, s.list[:k])
	copy(base[k:], s.list[k+1:])
	copy(arrivals, s.arr[:k])
	copy(prefixGain, s.prefixGain[:k+1])
	if k < n {
		old := c.xfer[s.list[k].q]
		deadlines := w.deadlines
		wf := w.arrivalFrame(s.arr[k+1] - old)
		acc := prefixGain[k]
		for j := k; j < n; j++ {
			e := base[j]
			at := s.arr[j+1] - old
			wf = frameUp(deadlines, at, wf)
			arrivals[j] = at
			acc = acc + e.c.utilityFrom(e.q, wf) - e.c.floor
			prefixGain[j+1] = acc
		}
	}
	s.base, s.baseArr, s.basePrefix = base, arrivals, prefixGain
	return base, arrivals, prefixGain
}

// insertAt installs the list a successful bestInsertion chose — the list
// without c, with c@q inserted at pos — into the spare buffer and swaps it
// in. It returns the first slot at which the new list differs from the old
// one: everything the scheduler caches about earlier slots still holds.
func (s *scheduler) insertAt(c *candidate, q, pos int) int {
	base, from := s.list, pos
	if c.inList {
		base = s.base
		if s.baseSlot < from {
			from = s.baseSlot
		}
	}
	out := s.spare[:0]
	out = append(out, base[:pos]...)
	out = append(out, fetchEntry{c: c, q: q})
	out = append(out, base[pos:]...)
	s.spare = s.list[:0]
	s.list = out
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
	// walked up from there.
	deadlines := w.deadlines
	wfAt := w.arrivalFrame(at)
	k := from // entries kept so far
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
		c.assigned = e.q
		at, wfAt = a, wf
		u := c.floor + gain // utilityFrom
		list[k] = e
		arr[k] = a
		prefixGain[k+1] = prefixGain[k] + u - c.floor
		totals[k+1] = totals[k] + (u - c.floor)
		k++
	}
	s.list, s.arr, s.prefixGain, s.totals = list[:k], arr[:k], prefixGain[:k+1], totals[:k+1]
	return totals[k]
}
