package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

// This file is the test oracle for scheduler.go: Algorithm 1 as it was
// before the scheduler learned to keep the evaluation of its fetch list
// between insertion attempts. refScheduler re-derives every arrival, skip
// floor and gain sum from scratch on every attempt; its bestInsertion,
// evalList, insertAt and demoteAndDrop (and the utilityAt / marginalAt they
// call) are kept verbatim, so TestSchedulerMatchesReference can require the
// production scheduler to reproduce its fetch lists and its totals bit for
// bit.

// refScheduler is the scheduler as it stood before: a reusable scratch
// arena bound to a window by reset, with no state kept between attempts
// beyond the fetch list itself.
type refScheduler struct {
	w       *window
	minQ    int
	maxQ    int
	baseOff time.Duration // transfer backlog ahead of the primary stream

	// floorTotal is the total utility with every candidate skipped; listed
	// entries contribute their gain over that floor, making list
	// evaluation O(list length).
	floorTotal float64

	list []fetchEntry

	// Reusable run scratch.
	spare       []fetchEntry // double buffer: insertAt builds here, then swaps
	base        []fetchEntry // current list minus the candidate being placed
	order       []*candidate
	arrivals    []time.Duration
	prefixGain  []float64
	suffixShift []float64
	sorter      gainSorter
}

// reset rebinds the scheduler to a window for a fresh run, keeping the
// scratch buffers of previous runs.
func (s *refScheduler) reset(w *window, minQ video.Quality, baseOffset time.Duration) {
	s.w = w
	s.minQ = int(minQ)
	s.maxQ = video.NumQualities - 1
	s.baseOff = baseOffset
	s.floorTotal = 0
	s.list = s.list[:0]
	for _, c := range w.cands {
		s.floorTotal += c.utilityAt(w, -1, 0)
	}
}

func (s *refScheduler) transferTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / s.w.rate * float64(time.Second))
}

// totalUtility computes the utility of the whole assignment: every listed
// tile at its arrival instant, plus the skip floor of unlisted candidates.
func (s *refScheduler) totalUtility() float64 {
	return s.evalList(s.list)
}

// run executes the quality rounds and returns the final ordered fetch list.
// The returned slice aliases the scheduler's reusable buffers and is valid
// until the next reset/run.
func (s *refScheduler) run() []fetchEntry {
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
			s.insertAt(c, q, pos)
			best = s.demoteAndDrop()
		}
	}
	return s.list
}

// optimisticGain is the utility gain of moving c to quality q if it could
// arrive instantly — the sort key of Algorithm 1's round ("sort i by
// U_{i,q,t0}").
func (s *refScheduler) optimisticGain(c *candidate, q int) float64 {
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
// — the amortization behind the paper's O(C²Q) bound. On success, s.base
// holds the list without c, ready for insertAt.
func (s *refScheduler) bestInsertion(c *candidate, q int, curBest float64) (int, bool) {
	// Working copy without c.
	s.base = s.base[:0]
	for _, e := range s.list {
		if e.c != c {
			s.base = append(s.base, e)
		}
	}
	n := len(s.base)
	dt := s.transferTime(c.size[q])

	// arrivals[j]: when base entry j completes with no insertion;
	// prefixGain[p]: summed gain of unshifted entries before p;
	// suffixShift[p]: summed gain of entries from p on, pushed back by dt.
	if cap(s.prefixGain) < n+1 {
		s.arrivals = make([]time.Duration, n+1)
		s.prefixGain = make([]float64, n+1)
		s.suffixShift = make([]float64, n+1)
	}
	arrivals := s.arrivals[:n]
	prefixGain := s.prefixGain[:n+1]
	suffixShift := s.suffixShift[:n+1]
	prefixGain[0] = 0
	suffixShift[n] = 0
	at := s.w.t0 + s.baseOff
	for j, e := range s.base {
		at += s.transferTime(e.c.size[e.q])
		arrivals[j] = at
		floor := e.c.utilityAt(s.w, -1, 0)
		prefixGain[j+1] = prefixGain[j] + e.c.utilityAt(s.w, e.q, at) - floor
	}
	for j := n - 1; j >= 0; j-- {
		e := s.base[j]
		floor := e.c.utilityAt(s.w, -1, 0)
		suffixShift[j] = suffixShift[j+1] + e.c.utilityAt(s.w, e.q, arrivals[j]+dt) - floor
	}
	cFloor := c.utilityAt(s.w, -1, 0)

	bestTotal := curBest
	bestPos := -1
	arrBefore := s.w.t0 + s.baseOff
	for pos := 0; pos <= n; pos++ {
		if pos > 0 {
			arrBefore = arrivals[pos-1]
		}
		total := s.floorTotal + prefixGain[pos] +
			(c.utilityAt(s.w, q, arrBefore+dt) - cFloor) +
			suffixShift[pos]
		if total > bestTotal+1e-9 {
			bestTotal = total
			bestPos = pos
		}
	}
	return bestPos, bestPos >= 0
}

// evalList computes the total utility of a tentative list: the skip-floor
// total plus each listed entry's gain over its own floor at its arrival
// instant. O(len(list)).
func (s *refScheduler) evalList(list []fetchEntry) float64 {
	total := s.floorTotal
	at := s.w.t0 + s.baseOff
	for _, e := range list {
		at += s.transferTime(e.c.size[e.q])
		total += e.c.utilityAt(s.w, e.q, at) - e.c.utilityAt(s.w, -1, 0)
	}
	return total
}

// insertAt installs the list produced by a successful bestInsertion —
// s.base with c@q inserted at pos — into the spare buffer, swaps it in,
// and refreshes assignment bookkeeping.
func (s *refScheduler) insertAt(c *candidate, q, pos int) {
	out := s.spare[:0]
	out = append(out, s.base[:pos]...)
	out = append(out, fetchEntry{c: c, q: q})
	out = append(out, s.base[pos:]...)
	s.spare = s.list[:0]
	s.list = out
	for _, cc := range s.w.cands {
		cc.inList = false
		cc.assigned = -1
	}
	for _, e := range s.list {
		e.c.inList = true
		e.c.assigned = e.q
	}
}

// demoteAndDrop applies Algorithm 1's repair: entries whose marginal
// utility fell to zero (their deadline passed due to upstream insertions)
// are demoted quality step by quality step — shrinking their transfer time
// and hence their arrival — and dropped entirely if even the lowest primary
// quality earns nothing. Returns the resulting total utility.
func (s *refScheduler) demoteAndDrop() float64 {
	out := s.list[:0]
	at := s.w.t0 + s.baseOff
	for _, e := range s.list {
		arr := at + s.transferTime(e.c.size[e.q])
		for e.c.marginalAt(s.w, e.q, arr) <= 0 && e.q > s.minQ {
			e.q--
			arr = at + s.transferTime(e.c.size[e.q])
		}
		if e.c.marginalAt(s.w, e.q, arr) <= 0 {
			// Dropped: subsequent arrivals move earlier automatically since
			// `at` is not advanced.
			e.c.inList = false
			e.c.assigned = -1
			continue
		}
		e.c.assigned = e.q
		out = append(out, e)
		at = arr
	}
	s.list = out
	return s.totalUtility()
}

// utilityAt returns the total utility of candidate c fetched at quality q
// arriving at instant `at`: masking covers frames before arrival, the
// fetched quality the rest. Skipped (q < 0) yields the masking floor.
func (c *candidate) utilityAt(w *window, q int, at time.Duration) float64 {
	base := c.full * c.maskScore
	if q < 0 {
		return base
	}
	wf := w.arrivalFrame(at)
	if wf >= w.numFrames {
		return base
	}
	return base + c.cumL[wf]*(c.qscore[q]-c.maskScore)
}

// marginalAt returns only the gain over the skip floor (used for the
// zero-utility demote/drop rule of Algorithm 1).
func (c *candidate) marginalAt(w *window, q int, at time.Duration) float64 {
	wf := w.arrivalFrame(at)
	if wf >= w.numFrames {
		return 0
	}
	return c.cumL[wf] * (c.qscore[q] - c.maskScore)
}

// refFor returns a reference scheduler bound to the same window and run
// parameters as s, with an empty list.
func refFor(s *scheduler) *refScheduler {
	return &refScheduler{w: s.w, minQ: s.minQ, maxQ: s.maxQ, baseOff: s.baseOff, floorTotal: s.floorTotal}
}

// randomWindow builds a seeded scheduler window the way build leaves one:
// uniformly spaced deadlines, candidates needed over one chunk's span of
// frames with suffix-summed location scores, sizes and scores growing with
// quality, sorted by cumulative score. budget scales the rate against the
// bytes of every candidate at a middle quality, from starved (a few
// percent of the window) to abundant.
func randomWindow(rng *rand.Rand, nCands, frames int, budget float64) *window {
	frameDur := time.Second / time.Duration([]int{24, 30, 60}[rng.Intn(3)])
	w := &window{
		numFrames: frames,
		frameDur:  frameDur,
		deadlines: make([]time.Duration, frames),
	}
	if rng.Intn(2) == 0 {
		w.t0 = time.Duration(rng.Int63n(int64(time.Minute)))
	}
	d0 := w.t0 + time.Duration(rng.Int63n(int64(frameDur)+1))
	for wf := range w.deadlines {
		w.deadlines[wf] = d0 + time.Duration(wf)*frameDur
	}
	w.slab = make([]candidate, nCands)
	var midBytes int64
	for i := range w.slab {
		c := &w.slab[i]
		c.chunk = rng.Intn(3)
		c.tile = geom.TileID(i)
		c.assigned = -1
		// Needed over frames [first, last); location scores in sixteenths,
		// as the overlap lattice produces them.
		first := rng.Intn(frames)
		last := first + 1 + rng.Intn(frames-first)
		c.cumL = make([]float64, frames+1)
		for wf := frames - 1; wf >= 0; wf-- {
			pf := 0.0
			if wf >= first && wf < last {
				pf = float64(rng.Intn(48)+1) / 16
			}
			c.cumL[wf] = c.cumL[wf+1] + pf
		}
		c.full = c.cumL[0]
		size := int64(500 + rng.Intn(20000))
		score := 24 + 10*rng.Float64()
		for q := range c.size {
			c.size[q] = size
			c.qscore[q] = score
			size += int64(float64(size) * (0.3 + rng.Float64()))
			score += 0.5 + 5*rng.Float64()
		}
		midBytes += c.size[2]
		switch rng.Intn(3) {
		case 0:
			c.maskScore = c.qscore[video.Lowest]
		case 1:
			c.maskScore = c.qscore[video.Lowest] * rng.Float64()
		}
		w.cands = append(w.cands, c)
	}
	w.sortCands()
	if tile, ok := checkEndsInZero(w); !ok {
		panic(fmt.Sprintf("randomWindow: tile %d's cumL does not end in a zero at frame %d", tile, frames))
	}
	w.rate = budget * float64(midBytes) / (float64(frames) * frameDur.Seconds())
	if w.rate < 1 {
		w.rate = 1
	}
	return w
}

// cloneWindow deep-copies the candidates so that two schedulers can run on
// the same window without sharing assignment state.
func cloneWindow(w *window) *window {
	cp := *w
	cp.slab = append([]candidate(nil), w.slab...)
	cp.cands = make([]*candidate, len(w.cands))
	for i, c := range w.cands {
		for j := range w.slab {
			if c == &w.slab[j] {
				cp.cands[i] = &cp.slab[j]
			}
		}
	}
	return &cp
}

// TestSchedulerMatchesReference is the differential test behind the
// scheduler's caching: over seeded random windows (1–80 candidates, 1–90
// frames, rates from starved to abundant, with and without a masking
// backlog, primary and single-quality masking rounds — every multi-round
// run re-places candidates already listed at a lower quality) the fetch
// list must equal the reference's entry for entry, the total must have the
// same bits, and the candidates must be left in the same state. One
// scheduler is reused for every window, as Decide reuses it.
func TestSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20231))
	var s scheduler
	var ref refScheduler
	listed, windows := 0, 3000
	for i := 0; i < windows; i++ {
		nCands := 1 + rng.Intn(80)
		frames := 1 + rng.Intn(90)
		budget := math.Pow(10, -2+4*rng.Float64()) // 0.01x .. 100x
		w := randomWindow(rng, nCands, frames, budget)
		wr := cloneWindow(w)
		var baseOff time.Duration
		if rng.Intn(2) == 0 {
			baseOff = time.Duration(rng.Int63n(int64(time.Duration(frames)*w.frameDur*3/2) + 1))
		}
		minQ := video.Lowest + video.Quality(rng.Intn(2))
		masking := i%5 == 4 // masksched.go: one quality level

		s.reset(w, minQ, baseOff)
		ref.reset(wr, minQ, baseOff)
		if masking {
			s.maxQ, ref.maxQ = int(minQ), int(minQ)
		}
		got, want := s.run(), ref.run()

		if len(got) != len(want) {
			t.Fatalf("window %d (%d cands, %d frames, budget %.3g): %d entries, reference %d",
				i, nCands, frames, budget, len(got), len(want))
		}
		for j := range want {
			if got[j].c.tile != want[j].c.tile || got[j].q != want[j].q {
				t.Fatalf("window %d entry %d: tile %d at q%d, reference tile %d at q%d",
					i, j, got[j].c.tile, got[j].q, want[j].c.tile, want[j].q)
			}
		}
		if a, b := s.totalUtility(), ref.totalUtility(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("window %d: total %v (%#x), reference %v (%#x)", i, a, math.Float64bits(a), b, math.Float64bits(b))
		}
		// The cached evaluation must be what from-scratch passes over the
		// final list compute, in evalList's and in bestInsertion's shape.
		if a, b := s.totalUtility(), refFor(&s).evalList(got); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("window %d: cached total %v, evalList %v", i, a, b)
		}
		at, prefix := wr.t0+baseOff, 0.0
		for j, e := range want {
			at += ref.transferTime(e.c.size[e.q])
			prefix = prefix + e.c.utilityAt(wr, e.q, at) - e.c.utilityAt(wr, -1, 0)
			if s.arr[j] != at || math.Float64bits(s.prefixGain[j+1]) != math.Float64bits(prefix) {
				t.Fatalf("window %d entry %d: cached arrival %v prefix %v, from scratch %v %v",
					i, j, s.arr[j], s.prefixGain[j+1], at, prefix)
			}
		}
		for j := range w.slab {
			a, b := &w.slab[j], &wr.slab[j]
			if a.assigned != b.assigned || a.inList != b.inList {
				t.Fatalf("window %d tile %d: assigned %d inList %v, reference %d %v",
					i, a.tile, a.assigned, a.inList, b.assigned, b.inList)
			}
		}
		listed += len(got)
	}
	if listed < 10*windows {
		t.Errorf("only %d entries listed over %d windows: the generator is not exercising the list", listed, windows)
	}
}

// TestInsertionScanMatchesReference drives both schedulers through the
// rounds in lockstep and compares what each insertion attempt computed,
// not only what it decided: the chosen position, and the arrivals, prefix
// gains and shifted suffix gains behind it, bit for bit (ahead of a listed
// candidate's slot as the list's own cache, behind it as the tail scratch).
// A sum accumulated in another order differs in the last place and almost
// never flips a decision, so only this catches it.
func TestInsertionScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var s scheduler
	var ref refScheduler
	attempts := 0
	for i := 0; i < 400; i++ {
		w := randomWindow(rng, 1+rng.Intn(60), 1+rng.Intn(90), math.Pow(10, -1.5+3*rng.Float64()))
		wr := cloneWindow(w)
		baseOff := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		s.reset(w, video.Lowest+1, baseOff)
		ref.reset(wr, video.Lowest+1, baseOff)
		s.order = append(s.order[:0], w.cands...)
		ref.order = append(ref.order[:0], wr.cands...)
		best, refBest := s.totalUtility(), ref.totalUtility()
		for q := s.minQ; q <= s.maxQ; q++ {
			for j, c := range s.order {
				c.sortKey = s.optimisticGain(c, q)
				ref.order[j].sortKey = c.sortKey
			}
			s.sorter.c, ref.sorter.c = s.order, ref.order
			sort.Stable(&s.sorter)
			sort.Stable(&ref.sorter)
			for j, c := range s.order {
				rc := ref.order[j]
				if c.tile != rc.tile || c.assigned != rc.assigned {
					t.Fatalf("window %d q%d: order or assignment diverged at %d", i, q, j)
				}
				if c.assigned >= q || s.optimisticGain(c, q) <= 0 {
					continue
				}
				listed := c.inList
				pos, ok := s.bestInsertion(c, q, best)
				refPos, refOK := ref.bestInsertion(rc, q, refBest)
				attempts++
				if pos != refPos || ok != refOK {
					t.Fatalf("window %d q%d tile %d: position %d %v, reference %d %v", i, q, c.tile, pos, ok, refPos, refOK)
				}
				// The list without c: up to c's slot k it is the list's own
				// cache, behind it the tail scratch bestInsertion filled.
				n, k := len(s.list), len(s.list)
				if listed {
					n, k = n-1, c.slot
				}
				if n != len(ref.base) || listed && s.list[k].c != c {
					t.Fatalf("window %d q%d tile %d: slot %d of %d entries, reference %d without it", i, q, c.tile, k, len(s.list), len(ref.base))
				}
				for p := 0; p <= n; p++ {
					prefix := s.prefixGain[min(p, k)]
					if p > k {
						prefix = s.tailPrefix[p-k-1]
					}
					if math.Float64bits(prefix) != math.Float64bits(ref.prefixGain[p]) {
						t.Fatalf("window %d q%d tile %d: prefixGain[%d] %v, reference %v", i, q, c.tile, p, prefix, ref.prefixGain[p])
					}
					switch {
					case p < k && s.arr[p] != ref.arrivals[p]:
						t.Fatalf("window %d q%d tile %d: arrival %d is %v, reference %v", i, q, c.tile, p, s.arr[p], ref.arrivals[p])
					case p >= k && p < n && s.tailArr[p-k] != ref.arrivals[p]:
						t.Fatalf("window %d q%d tile %d: arrival %d is %v behind slot %d, reference %v", i, q, c.tile, p, s.tailArr[p-k], k, ref.arrivals[p])
					}
					if math.Float64bits(s.suffixShift[p]) != math.Float64bits(ref.suffixShift[p]) {
						t.Fatalf("window %d q%d tile %d: suffixShift[%d] %v, reference %v", i, q, c.tile, p, s.suffixShift[p], ref.suffixShift[p])
					}
				}
				if !ok {
					continue
				}
				best = s.repair(s.insertAt(c, q, pos))
				ref.insertAt(rc, q, refPos)
				refBest = ref.demoteAndDrop()
				if math.Float64bits(best) != math.Float64bits(refBest) {
					t.Fatalf("window %d q%d tile %d: total %v, reference %v", i, q, c.tile, best, refBest)
				}
			}
		}
	}
	if attempts < 10000 {
		t.Errorf("only %d insertion attempts compared", attempts)
	}
}
