package semantics

import "groupform/internal/dataset"

// ComplementTopKInto is TopKInto over the group of every dataset user
// outside excluded: the greedy framework's merged l-th group,
// described by the L−1 buckets it leaves out. Each item's stats over
// the group are the dataset's per-level rating counts
// (dataset.Levels) minus the excluded members' ratings, which fold
// into a level table leased in s, so the cost is O(excluded ratings +
// items·levels) instead of O(group ratings). The stats are exact —
// integer counts, the lowest level left non-empty as the minimum, and
// a rating sum that no association can round on an exact grid — and
// they finish through the same selectDense tail as TopKInto, so the
// answer is TopKInto's over the same group, bit for bit.
//
// excluded must list distinct dataset user indices. ok is false, and
// nothing is computed, when the dataset has no level table, under AV
// with weights or off an exact grid (dataset.Levels.Exact), or when
// TopKInto would reject the request; callers then run TopKInto. The
// returned slices alias s exactly as TopKInto's do.
//
//gfvet:zeroalloc
func (sc Scorer) ComplementTopKInto(sem Semantics, excluded []dataset.UserIdx, k int, s *TopKScratch) (items []dataset.ItemID, scores []float64, ok bool) {
	ds := sc.DS
	lv := ds.Levels()
	if lv == nil || (sem == AV && (len(sc.Weights) > 0 || !lv.Exact)) {
		return nil, nil, false
	}
	m, members := ds.NumItems(), ds.NumUsers()-len(excluded)
	if k <= 0 || k > m || members <= 0 {
		return nil, nil, false
	}
	nl := len(lv.Values())
	ex := s.levelTable(m * nl)
	for _, r := range excluded {
		cols, vals := ds.RowIdx(r)
		for p, j := range cols {
			ex[int(j)*nl+lv.Index(vals[p])]++
		}
	}
	da := s.ensureDense(m)
	for j := range m {
		total, out := lv.Counts[j*nl:(j+1)*nl], ex[j*nl:(j+1)*nl]
		var count int32
		var sum float64
		for l, c := range total {
			c -= out[l]
			out[l] = 0 // hand the table back zeroed
			if c == 0 {
				continue
			}
			// Seeding with the first product, not adding it to 0, keeps
			// an all -0 sum at -0, as the forward fold leaves it.
			if t := float64(c) * lv.Values()[l]; count == 0 {
				da.min[j], sum = lv.Values()[l], t
			} else {
				sum += t
			}
			count += c
		}
		if count > 0 {
			da.wsum[j], da.wraters[j], da.count[j] = sum, float64(count), count
			da.touched = append(da.touched, dataset.ItemIdx(j))
		}
	}
	items, scores = sc.selectDense(sem, da, members, float64(members), k, s)
	da.clear()
	return items, scores, true
}

// levelTable returns the scratch's zeroed n-slot excluded-level table;
// ComplementTopKInto zeroes every slot it reads before returning.
func (s *TopKScratch) levelTable(n int) []int32 {
	if cap(s.levels) < n {
		s.levels = make([]int32, n)
	}
	return s.levels[:n]
}
