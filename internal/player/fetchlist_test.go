package player_test

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"dragonfly/internal/player"
	"dragonfly/internal/sim"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// listProbe wraps a scheme and checks, at every decision, that the list
// the decision before returned is what it was when returned: a Decide list
// stays valid through the next Decide on the same Context. It keeps a copy
// of every list.
type listProbe struct {
	player.Scheme
	t          *testing.T
	key        string
	prev, copy []player.RequestItem
	lists      [][]player.RequestItem
	// onFirst, when set, looks at the first decision's Context.
	onFirst func(*player.Context)
}

func (p *listProbe) Decide(ctx *player.Context) []player.RequestItem {
	if len(p.lists) == 0 && p.onFirst != nil {
		p.onFirst(ctx)
	}
	got := p.Scheme.Decide(ctx)
	if !slices.Equal(p.prev, p.copy) {
		p.t.Fatalf("%s: decision %d rewrote the list decision %d returned:\nnow  %v\nthen %v",
			p.key, len(p.lists), len(p.lists)-1, p.prev, p.copy)
	}
	p.prev, p.copy = got, slices.Clone(got)
	p.lists = append(p.lists, p.copy)
	return got
}

// garbageScheme leaves both of the Context's fetch-list buffers at
// garbageLen items that name no tile of any manifest and asks for nothing,
// so the Playback's Finish pools them dirty.
type garbageScheme struct{}

const garbageLen = 1 << 13

func (garbageScheme) Name() string                    { return "garbage" }
func (garbageScheme) DecisionInterval() time.Duration { return 100 * time.Millisecond }
func (garbageScheme) StallPolicy() player.StallPolicy { return player.NeverStall }
func (garbageScheme) Decide(ctx *player.Context) []player.RequestItem {
	for range 2 {
		buf := ctx.FetchList()
		*buf = slices.Grow((*buf)[:0], garbageLen)[:garbageLen]
		for i := range *buf {
			(*buf)[i] = player.RequestItem{Stream: player.Masking, Chunk: -1 - i, Tile: 1 << 20, Quality: 99}
		}
	}
	return nil
}

// TestRegistryFetchListsOwned plays a session of every registered scheme
// twice. Both times, each list a decision returns must be unchanged after
// the next decision on the same Context. The second time the session's
// storage comes from a pool seeded with oversized fetch-list buffers full of
// garbage items, and every decision must list what it listed the first
// time. With the collector off and on one P the pool hands the seeded
// buffers back, which the second session's first decision checks; under
// the race detector, where the pool drops a random quarter of its Puts,
// that check is skipped.
func TestRegistryFetchListsOwned(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := video.Generate(video.GenParams{ID: "own", NumChunks: 5, TargetQP42Mbps: 1, TargetQP22Mbps: 12, Seed: 9})
	for c := range m.MaskDisplacement {
		m.MaskDisplacement[c] = 20
	}
	head := trace.GenerateHead(trace.HeadGenParams{UserID: "u", Class: trace.MotionHigh, Duration: 7 * time.Second, Seed: 4})
	bw := trace.GenerateBandwidth(trace.BandwidthGenParams{ID: "bw", Duration: 20 * time.Second, Seed: 4,
		StateMeansMbps: []float64{2, 8, 20}, SwitchPerSec: 0.5, NoiseFrac: 0.2})
	run := func(s player.Scheme) {
		t.Helper()
		if _, err := player.Run(player.Config{Manifest: m, Head: head, Bandwidth: bw, Scheme: s}); err != nil {
			t.Fatal(err)
		}
	}
	reg := sim.Registry()
	keys := make([]string, 0, len(reg))
	for key := range reg {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		clean := &listProbe{Scheme: reg[key](), t: t, key: key}
		run(clean)
		run(garbageScheme{})
		dirty := &listProbe{Scheme: reg[key](), t: t, key: key + " over a dirty pool", onFirst: func(ctx *player.Context) {
			for range 2 {
				if n := cap(*ctx.FetchList()); n < garbageLen && !raceEnabled {
					t.Fatalf("%s: the session's fetch-list buffer holds %d items, not the seeded %d", key, n, garbageLen)
				}
			}
		}}
		run(dirty)
		if len(clean.lists) < m.NumChunks {
			t.Fatalf("%s: %d decisions", key, len(clean.lists))
		}
		if len(dirty.lists) != len(clean.lists) {
			t.Fatalf("%s: %d decisions over a dirty pool, %d over a clean one", key, len(dirty.lists), len(clean.lists))
		}
		for i := range clean.lists {
			if !slices.Equal(dirty.lists[i], clean.lists[i]) {
				t.Fatalf("%s decision %d: over a dirty pool it lists\n%v\nover a clean one\n%v", key, i, dirty.lists[i], clean.lists[i])
			}
		}
	}
}
