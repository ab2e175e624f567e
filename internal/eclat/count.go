package eclat

import (
	"context"

	"repro/internal/itemset"
	"repro/internal/tidlist"
)

// Per-unit costs of the counted expansion, in nanoseconds like tidlist's
// join price. They come from a least-squares fit to per-class timings of
// the count on the top-level and first-level classes of dense D5K, T10.I6
// D20K and T5.I2 D20K data, rounded between two passes of that fit
// (EXPERIMENTS.md "Class-local triangular count"). BENCH_kernels.json's
// countCost re-checks them: scripts/bench_kernels.go fits the same model
// to BenchmarkClassCount's rows. That fit reads about 1.6 ns per span TID
// instead of 2.4, which would count some 12- to 17-member classes of
// T10.I6 D2K at 0.5 % that time the same either way; the constants keep
// them joined (DESIGN.md §10 "Counted classes").
const (
	costTransposeNS = 10.0 // per member TID copied out and placed in its row
	costScanWordNS  = 11.0 // per word of a packed member scanned for its TIDs
	costSpanNS      = 2.4  // per TID of the class span the row index covers
	costCellNS      = 1.0  // per triangle cell cleared and scanned
	costIncNS       = 1.8  // per pair increment
)

// classPlan is what computeFrequent reads off a class before expanding
// it: the class's TID window (the diffset gate's density denominator
// and the count's row index), the members' support total (which the
// diffset gate counts down), the units the count's price weighs, the
// priced cost of each expansion, and which one the price chose.
type classPlan struct {
	lo              itemset.TID
	span            int
	sup             int
	units           countUnits
	joinNS, countNS float64
	counted         bool
}

// countUnits are the quantities the counted expansion's price weighs:
// member TIDs transposed, words of packed members scanned for them, span
// TIDs the row index covers, triangle cells cleared and scanned, and pair
// increments.
type countUnits struct {
	tids, words, span, cells, incs float64
}

// ns prices units at the per-unit costs.
func (u countUnits) ns() float64 {
	return costTransposeNS*u.tids + costScanWordNS*u.words + costSpanNS*u.span +
		costCellNS*u.cells + costIncNS*u.incs
}

// planClass prices one class's two expansions from its shape and keeps
// the cheaper. Joining pays C(s,2) joins at tidlist.JoinNS, the per-join
// figure the encoding policy weighs for the members' encoding. Counting
// pays the transposition (Σσᵢ TIDs plus the words of packed members),
// a row index over the class span, a sweep of the C(s,2) triangle, and
// Σ_{i<j} σᵢσⱼ / sup(prefix) pair increments: under independence inside
// the prefix's tid-set, members i and j share σᵢσⱼ / sup(prefix) TIDs.
// prefixSup is the support of the class prefix; when unknown (0), the
// largest member support, a lower bound, stands in for it.
func planClass(members []member, prefixSup int) classPlan {
	var p classPlan
	if p.lo, p.span = classSpan(members); p.span == 0 {
		return p
	}
	var sumSq float64
	maxSup := 0
	for _, m := range members {
		sup := m.tids.Support()
		p.sup += sup
		maxSup = max(maxSup, sup)
		p.units.tids += float64(sup)
		sumSq += float64(sup) * float64(sup)
		p.units.words += packedWords(m.tids)
	}
	s, sum := len(members), p.units.tids
	p.units.span = float64(p.span)
	p.units.cells = float64(s) * float64(s-1) / 2
	p.units.incs = (sum*sum - sumSq) / 2 / float64(max(prefixSup, maxSup))
	shape := tidlist.ClassShape{Members: s, Support: int(sum) / s, Span: p.span}
	p.joinNS = p.units.cells * tidlist.JoinNS(members[0].tids.Repr(), shape)
	p.countNS = p.units.ns()
	p.counted = p.countNS < p.joinNS
	return p
}

// packedWords is the number of 64-TID words a packed member's
// transposition scans, its TID range in words; a sparse member has none.
func packedWords(s tidlist.Set) float64 {
	if s.Repr() == tidlist.ReprSparse {
		return 0
	}
	lo, hi, ok := tidlist.Bounds(s)
	if !ok {
		return 0
	}
	return float64(hi/64-lo/64) + 1
}

// countScratch is one worker's scratch for counted expansions, reused
// across classes: one chunk's transposition — its members' TIDs, the
// row index over the chunk's part of the class span (CSR) and the
// transposed member ranks — and the triangles of the counted classes on
// the current recursion path, innermost on top. The transposition is
// bounded by one 64K-TID chunk whatever the class span. A counted class
// reads its triangle row by row while its sub-classes are expanded, so
// a nested count stacks its triangle above the parent's instead of
// overwriting it.
type countScratch struct {
	tids  tidlist.List // the chunk's TIDs of every member, member after member
	ends  []int        // ends[i]: end of member i's TIDs in tids
	index []int32      // per chunk TID: its row's size, then its row's end
	rows  []int32      // member ranks grouped by TID, ascending per row
	cells []int32      // stacked C(s,2) triangles
}

// cellBase places the pair (a, b), a < b, of an s-member class in cell
// cellBase(a, s)+b of the class's triangle. The rows (a, a+1) … (a, s-1)
// lie one after another behind one padding cell, which keeps every
// row's base non-negative, so a triangle spans C(s,2)+1 cells.
func cellBase(a, s int) int { return a * (2*s - a - 3) / 2 }

// count pushes a zeroed triangle for members, whose TIDs lie in
// [lo, lo+span), fills it with the support of every member pair, and
// returns the triangle's offset in cs.cells and the pair increments
// performed: the section 5.1 count applied inside the class, one 64K-TID
// chunk of the span at a time.
func (cs *countScratch) count(members []member, lo itemset.TID, span int) (base int, incs int64) {
	s := len(members)
	base = len(cs.cells)
	cs.cells = grow(cs.cells, base+s*(s-1)/2+1)
	tri := cs.cells[base:]
	clear(tri)
	end := int(lo) + span
	for key := int(lo) >> tidlist.ChunkBits; key<<tidlist.ChunkBits < end; key++ {
		from := max(key<<tidlist.ChunkBits, int(lo))
		to := min((key+1)<<tidlist.ChunkBits, end)
		incs += cs.countChunk(members, uint16(key), itemset.TID(from), to-from, tri)
	}
	return base, incs
}

// countChunk adds to the s-member triangle tri the pairs of chunk key,
// whose TIDs in the class lie in [lo, lo+n): the members' TIDs there are
// transposed into per-TID rows of member ranks, and each row adds one to
// the cell of every pair it holds. It returns the increments performed.
func (cs *countScratch) countChunk(members []member, key uint16, lo itemset.TID, n int, tri []int32) (incs int64) {
	s := len(members)
	cs.tids, cs.ends = cs.tids[:0], cs.ends[:0]
	for _, m := range members {
		cs.tids = tidlist.AppendChunk(cs.tids, m.tids, key)
		cs.ends = append(cs.ends, len(cs.tids))
	}
	if len(cs.tids) < 2 {
		return 0
	}
	cs.index = grow(cs.index[:0], n)
	clear(cs.index)
	for _, t := range cs.tids {
		cs.index[t-lo]++
	}
	var end int32
	for t, c := range cs.index {
		end += c
		cs.index[t] = end - c // row start; advanced to its end by the fill
	}
	cs.rows = grow(cs.rows[:0], len(cs.tids))
	start := 0
	for r, e := range cs.ends {
		for _, t := range cs.tids[start:e] {
			cs.rows[cs.index[t-lo]] = int32(r)
			cs.index[t-lo]++
		}
		start = e
	}

	var from int32
	for _, to := range cs.index {
		if to-from < 2 {
			from = to
			continue
		}
		row := cs.rows[from:to]
		from = to
		k := len(row)
		incs += int64(k) * int64(k-1) / 2
		for x, a := range row[:k-1] {
			cells := tri[cellBase(int(a), s):]
			for _, b := range row[x+1:] {
				cells[b]++
			}
		}
	}
	return incs
}

// grow returns buf resized to n, keeping its contents and reusing its
// storage when large enough; cells past len(buf) are unspecified.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return append(buf, make([]int32, n-len(buf))...)
	}
	return buf[:n]
}

// countExpand is computeFrequent's counted branch, for a class whose
// plan chose to count: one count fills the class's C(s,2) triangle with
// the exact support of every member pair, each pair reaching the
// threshold is emitted with its counted support, and only the survivors
// of a sub-class with two or more members are intersected — without the
// short circuit, since the count already proved them frequent — to seed
// the next level. Emission order, threshold reads, cancellation checks
// and the diffset gate are computeFrequent's, so the output and every
// top-k raise match the joined expansion.
func (w *worker) countExpand(ctx context.Context, members []member, p classPlan, emit Emitter) {
	st, ar, cs := w.st, w.ar, w.cs
	s := len(members)
	base, incs := cs.count(members, p.lo, p.span)
	defer func() { cs.cells = cs.cells[:base] }()
	st.CountedClasses++
	st.CountOps += incs
	gate := newDiffsetGate(p, w.opts)
	var scratch tidlist.Set
	for i := 0; i < s-1; i++ {
		if ctx.Err() != nil {
			return
		}
		minsup := w.th.current()
		if gate.wins(members, i) {
			st.DiffsetClasses++
			diffTransition(ctx, members, i, w.th, st, ar, emit)
			continue
		}
		// Re-sliced every iteration: a nested count may have moved
		// cs.cells, copying this triangle along.
		off := base + cellBase(i, s)
		row := cs.cells[off+i+1 : off+s]
		n, last := 0, 0
		for k, c := range row {
			if int(c) >= minsup {
				n, last = n+1, k
			}
		}
		if n == 0 {
			continue
		}
		if n == 1 {
			emit(members[i].set.Join(members[i+1+last].set), int(row[last]))
			continue
		}
		mark := ar.mark()
		next := ar.nextMembers(n)
		for k, c := range row {
			if int(c) < minsup {
				continue
			}
			tids, ops := tidlist.IntersectSets(scratch, members[i].tids, members[i+1+k].tids, &st.Kernel)
			st.Intersections++
			st.IntersectOps += int64(ops)
			scratch = tids
			next = append(next, member{
				set:  members[i].set.Join(members[i+1+k].set),
				tids: ar.cloneSet(tids),
			})
		}
		for _, m := range next {
			emit(m.set, m.tids.Support())
		}
		w.computeFrequent(ctx, next, members[i].tids.Support(), emit)
		ar.release(mark)
	}
}
