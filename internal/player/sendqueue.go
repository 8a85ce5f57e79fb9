package player

import "dragonfly/internal/video"

// SendQueue is the server's side of the §3.3 delivery contract, with no
// socket, lock or clock in it: a newer request replaces the queue, a stale
// one is ignored, masking is never shed, and each (stream, chunk, tile)
// goes out once. The tile server runs one per session under its lock; Run's
// modelled server runs one with no budgets.
type SendQueue struct {
	m     *video.Manifest
	items []RequestItem // what is left to pop, in fetch-list order
	gen   uint32
	bytes int64       // payload total of items, a malformed one as zero; < 0 until sized
	sent  HeldSummary // what was sent or resumed: the redundancy rule's state
}

// NewSendQueue returns the empty queue of a session that has sent nothing.
func NewSendQueue(m *video.Manifest) SendQueue {
	return SendQueue{m: m, sent: newHeldSummary(m)}
}

// Install replaces the queue with items unless gen is older than the last
// installed, in serial-number order (uint32 wraparound survives); an equal
// gen re-installs, the replay a reconnecting client relies on. maxItems and
// maxBytes bound the queue (≤ 0: no bound); within them the queue is items
// itself, not a copy. Over one, the list's tail (its lowest utility, by the
// scheme contract) is shed but never masking, which is paid for first and
// may overrun a bound alone; an oversized primary is shed while smaller ones
// after it fit. A malformed item (not In the manifest) always fits: 0 bytes.
func (q *SendQueue) Install(gen uint32, items []RequestItem, maxItems int, maxBytes int64) (shed int, shedBytes int64) {
	if int32(gen-q.gen) < 0 {
		return 0, 0
	}
	q.gen, q.items, q.bytes = gen, items, -1
	if (maxItems <= 0 || len(items) <= maxItems) && (maxBytes <= 0 || q.Queued() <= maxBytes) {
		return 0, 0
	}
	count, budget := len(items), maxBytes
	if maxItems > 0 {
		count = maxItems
	}
	for _, it := range items {
		if it.Stream == Masking {
			count, budget = count-1, budget-q.size(it)
		}
	}
	count, budget = max(count, 0), max(budget, 0)
	kept := make([]RequestItem, 0, len(items))
	q.bytes = 0
	for _, it := range items {
		size := q.size(it)
		if it.Stream != Masking {
			if count == 0 || maxBytes > 0 && size > budget {
				shed, shedBytes = shed+1, shedBytes+size
				continue
			}
			count, budget = count-1, budget-size
		}
		kept, q.bytes = append(kept, it), q.bytes+size
	}
	q.items = kept
	return shed, shedBytes
}

// size is an item's payload size, or zero for one not In the manifest.
func (q *SendQueue) size(it RequestItem) int64 {
	if !it.In(q.m) {
		return 0
	}
	return it.Size(q.m)
}

// Pop removes entries from the head until the redundancy rule admits one,
// and returns it; false means the queue ran out.
func (q *SendQueue) Pop() (RequestItem, bool) {
	for len(q.items) > 0 {
		it := q.items[0]
		q.items = q.items[1:]
		if q.bytes >= 0 {
			q.bytes -= q.size(it)
		}
		if it.In(q.m) && q.sent.admit(it) {
			return it, true
		}
	}
	return RequestItem{}, false
}

// Merge marks what a resuming client holds as sent and returns how many
// entries are new. h must be Valid with the manifest's dimensions.
func (q *SendQueue) Merge(h HeldSummary) int64 { return q.sent.merge(h) }

// Queued is the payload total of the entries left to pop. A list is sized
// when first asked, so Run's modelled server, which never asks, never pays.
func (q *SendQueue) Queued() int64 {
	if q.bytes < 0 {
		q.bytes = 0
		for _, it := range q.items {
			q.bytes += q.size(it)
		}
	}
	return q.bytes
}
