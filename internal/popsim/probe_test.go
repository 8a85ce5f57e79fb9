package popsim

// StateBins returns the total number of allocated sketch bins — the
// memory-model observable: it depends only on which (scheme, cohort)
// cells exist, never on how many sessions were folded into them.
func (r *Rollup) StateBins() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, cohorts := range r.schemes {
		for _, cd := range cohorts {
			for _, d := range cd.dist {
				n += len(d.Bins)
			}
		}
	}
	return n
}
