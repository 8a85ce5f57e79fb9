package core

import (
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

// makeWindow hand-builds a scheduler window with explicit candidates so the
// greedy algorithm's mechanics can be tested in isolation.
func makeWindow(rateBytesPerSec float64, cands []*candidate) *window {
	const frames = 30
	w := &window{
		t0:        0,
		numFrames: frames,
		deadlines: make([]time.Duration, frames),
		frameDur:  time.Second / 30,
		rate:      rateBytesPerSec,
		cands:     cands,
	}
	for i := range w.deadlines {
		w.deadlines[i] = time.Duration(i) * w.frameDur
	}
	return w
}

// uniformCandidate builds a candidate needed for the whole window with a
// constant per-frame location score.
func uniformCandidate(tile geom.TileID, perFrame float64, sizes [video.NumQualities]int64, scores [video.NumQualities]float64, mask float64) *candidate {
	const frames = 30
	c := &candidate{tile: tile, assigned: -1, maskScore: mask, size: sizes, qscore: scores}
	c.cumL = make([]float64, frames+1)
	for wf := frames - 1; wf >= 0; wf-- {
		c.cumL[wf] = c.cumL[wf+1] + perFrame
	}
	c.full = c.cumL[0]
	return c
}

var (
	testSizes  = [video.NumQualities]int64{1000, 2000, 4000, 8000, 16000}
	testScores = [video.NumQualities]float64{30, 34, 38, 42, 46}
)

func TestGreedyPicksHighValueTileUnderPressure(t *testing.T) {
	// Two tiles, bandwidth fits roughly one top-quality fetch in-window.
	central := uniformCandidate(1, 3, testSizes, testScores, 30)
	edge := uniformCandidate(2, 0.5, testSizes, testScores, 30)
	w := makeWindow(18000, []*candidate{central, edge}) // 18 KB/s over 1 s window
	s := newScheduler(w, video.Lowest+1, 0)
	list := s.run()
	if len(list) == 0 {
		t.Fatal("nothing scheduled")
	}
	if list[0].c.tile != 1 {
		t.Fatalf("central tile not scheduled first: %+v", list[0].c.tile)
	}
	// The central tile must receive at least as high a quality as the edge.
	qe := -1
	for _, e := range list {
		if e.c.tile == 2 {
			qe = e.q
		}
	}
	if qe >= 0 && list[0].q < qe {
		t.Errorf("edge tile got higher quality (%d) than central (%d)", qe, list[0].q)
	}
}

func TestGreedyDropsTilePastDeadline(t *testing.T) {
	// Rate so low even the cheapest primary fetch misses the window.
	c := uniformCandidate(1, 3, testSizes, testScores, 30)
	w := makeWindow(100, []*candidate{c}) // 100 B/s: 2 KB takes 20 s
	s := newScheduler(w, video.Lowest+1, 0)
	list := s.run()
	if len(list) != 0 {
		t.Fatalf("scheduled a hopeless tile: %+v", list)
	}
	if c.assigned != -1 || c.inList {
		t.Error("dropped candidate still marked assigned")
	}
}

func TestGreedyDemotesInsteadOfDropping(t *testing.T) {
	// Rate fits q1 within the window but not q4.
	c := uniformCandidate(1, 3, testSizes, testScores, 30)
	w := makeWindow(4000, []*candidate{c}) // 4 KB/s: q1 (2 KB) in 0.5 s, q4 (16 KB) in 4 s
	s := newScheduler(w, video.Lowest+1, 0)
	list := s.run()
	if len(list) != 1 {
		t.Fatalf("want exactly one entry, got %d", len(list))
	}
	if list[0].q >= int(video.Highest) {
		t.Errorf("quality %d should have been demoted below highest", list[0].q)
	}
	at := w.t0 + s.transferTime(c.size[list[0].q])
	if c.marginalAt(w, list[0].q, at) <= 0 {
		t.Error("scheduled entry has no marginal utility")
	}
}

func TestGreedyInsertionDisplacesLowValueTile(t *testing.T) {
	// A low-value tile scheduled first must not block a high-value tile
	// discovered in a later round; the insertion machinery reorders.
	low := uniformCandidate(1, 0.6, testSizes, testScores, 0)
	high := uniformCandidate(2, 3, testSizes, testScores, 0)
	w := makeWindow(9000, []*candidate{low, high})
	s := newScheduler(w, video.Lowest+1, 0)
	list := s.run()
	if len(list) == 0 {
		t.Fatal("nothing scheduled")
	}
	if list[0].c.tile != 2 {
		t.Errorf("high-value tile should transmit first, got tile %d", list[0].c.tile)
	}
}

func TestNoMaskFloorMakesSkipsCostly(t *testing.T) {
	// Without masking (floor 0), the scheduler should accept lower quality
	// to cover more tiles rather than skip; with a masking floor, skipping
	// the low-value tile is acceptable.
	mkCands := func(mask float64) []*candidate {
		return []*candidate{
			uniformCandidate(1, 3, testSizes, testScores, mask),
			uniformCandidate(2, 1, testSizes, testScores, mask),
		}
	}
	wNoMask := makeWindow(6000, mkCands(0))
	sNoMask := newScheduler(wNoMask, video.Lowest, 0)
	nNoMask := len(sNoMask.run())

	wMask := makeWindow(6000, mkCands(30))
	sMask := newScheduler(wMask, video.Lowest+1, 0)
	nMask := len(sMask.run())
	if nNoMask < nMask {
		t.Errorf("no-mask scheduler covered fewer tiles (%d) than masked (%d)", nNoMask, nMask)
	}
}

func TestSchedulerEmptyCandidates(t *testing.T) {
	w := makeWindow(10000, nil)
	s := newScheduler(w, video.Lowest+1, 0)
	if list := s.run(); len(list) != 0 {
		t.Fatal("empty window scheduled something")
	}
	if s.totalUtility() != 0 {
		t.Error("empty window has non-zero utility")
	}
}

// commitList installs a feasible list (one repair leaves as it is) on a
// freshly reset scheduler, bookkeeping and cached evaluation included.
func commitList(t *testing.T, s *scheduler, list []fetchEntry) {
	t.Helper()
	s.list = append(s.list[:0], list...)
	for _, e := range s.list {
		e.c.inList = true
		e.c.assigned = e.q
	}
	s.repair(0)
	if len(s.list) != len(list) {
		t.Fatalf("committed list is not feasible: repair kept %d of %d entries", len(s.list), len(list))
	}
	for i, e := range list {
		if s.list[i] != e {
			t.Fatalf("committed list is not feasible: repair changed entry %d", i)
		}
	}
}

func TestUtilityConsistencyAcrossEval(t *testing.T) {
	// A from-scratch evaluation of the final list must equal the total the
	// scheduler carried through the run.
	cands := []*candidate{
		uniformCandidate(1, 3, testSizes, testScores, 30),
		uniformCandidate(2, 2, testSizes, testScores, 30),
		uniformCandidate(3, 1, testSizes, testScores, 30),
	}
	w := makeWindow(20000, cands)
	s := newScheduler(w, video.Lowest+1, 0)
	s.run()
	if got, want := refFor(s).evalList(s.list), s.totalUtility(); got != want {
		t.Errorf("evalList %v != totalUtility %v", got, want)
	}
}

func TestBestInsertionMatchesBruteForce(t *testing.T) {
	// The O(C) prefix/suffix insertion scan must agree with a brute-force
	// re-evaluation of every insertion position.
	cands := []*candidate{
		uniformCandidate(1, 3, testSizes, testScores, 30),
		uniformCandidate(2, 2.2, testSizes, testScores, 30),
		uniformCandidate(3, 1.4, testSizes, testScores, 0),
		uniformCandidate(4, 0.8, testSizes, testScores, 30),
	}
	w := makeWindow(15000, cands)
	s := newScheduler(w, video.Lowest+1, 0)
	// Seed a list with two entries.
	commitList(t, s, []fetchEntry{{c: cands[0], q: 2}, {c: cands[1], q: 1}})
	cur := s.totalUtility()

	c := cands[2]
	const q = 3
	pos, ok := s.bestInsertion(c, q, cur)
	if !ok {
		t.Fatal("insertion rejected")
	}
	s.repair(s.insertAt(c, q, pos))
	fastList := s.list
	fastTotal := s.totalUtility()

	// Brute force: evaluate every position with evalList.
	base := []fetchEntry{{c: cands[0], q: 2}, {c: cands[1], q: 1}}
	bestTotal := cur
	var bestList []fetchEntry
	for pos := 0; pos <= len(base); pos++ {
		trial := make([]fetchEntry, 0, len(base)+1)
		trial = append(trial, base[:pos]...)
		trial = append(trial, fetchEntry{c: c, q: q})
		trial = append(trial, base[pos:]...)
		if total := refFor(s).evalList(trial); total > bestTotal+1e-9 {
			bestTotal = total
			bestList = trial
		}
	}
	if bestList == nil {
		t.Fatal("brute force found no improvement but fast path did")
	}
	if diff := fastTotal - bestTotal; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("fast total %v != brute force %v", fastTotal, bestTotal)
	}
	for i := range bestList {
		if fastList[i].c != bestList[i].c || fastList[i].q != bestList[i].q {
			t.Errorf("position %d differs: fast %v@%d vs brute %v@%d",
				i, fastList[i].c.tile, fastList[i].q, bestList[i].c.tile, bestList[i].q)
		}
	}
}
