package eclat

import (
	"context"
	"sort"

	"repro/internal/db"
	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// buildVerticalItems is the one-scan initialization PolicyCharm starts
// from on horizontal data: per-item tid-lists (CHARM needs the 1-itemset
// lists; unlike Eclat it skips the triangular pair-counting pass for a
// simpler lattice root).
func buildVerticalItems(d *db.Database, minsup int, st *Stats) *vertical {
	st.Scans++
	lists := make([]tidlist.List, d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			lists[it] = append(lists[it], tx.TID)
		}
	}
	items := make([]tidlist.Set, len(lists))
	for it, l := range lists {
		items[it] = l
	}
	return charmRoots(d.Len(), items, minsup, st)
}

// charmRoots makes the frequent singletons of items (index = item id,
// nil entries absent) the root members of CHARM's one engine task. The
// search never writes its operands, so the roots may alias the sets.
func charmRoots(numTx int, items []tidlist.Set, minsup int, st *Stats) *vertical {
	var roots []member
	for it, s := range items {
		if s != nil && s.Support() >= minsup {
			roots = append(roots, member{set: itemset.Itemset{itemset.Item(it)}, tids: tidlist.TIDsOf(s)})
		}
	}
	st.Classes = 1
	return &vertical{
		res:     &mining.Result{MinSup: minsup, NumTransactions: numTx},
		classes: make([]eqclass.Class, 1),
		roots:   [][]member{roots},
	}
}

// charmExplore runs the CHARM search over the task's root members and
// emits the closed sets its accumulator kept. Extensions merge across
// prefixes, so the accumulator spans the whole search and the emission
// happens once, after it completes.
func charmExplore(ctx context.Context, members []member, minsup int, st *Stats, emit Emitter) {
	nodes := make([]*charmNode, len(members))
	for i, m := range members {
		nodes[i] = &charmNode{set: m.set, tids: m.tids}
	}
	acc := &charmAcc{byHash: map[int64][]mining.FrequentItemset{}}
	charmExtend(ctx, nodes, minsup, acc, st)
	for _, bucket := range acc.byHash {
		for _, f := range bucket {
			emit(f.Set, f.Support)
		}
	}
}

// charmNode is one search node: an itemset (which may grow via the
// containment properties) and its tid-set.
type charmNode struct {
	set  itemset.Itemset
	tids tidlist.Set
}

// charmChild defers itemset materialization: the parent's set may still
// grow while its children are being generated, so a child records only
// the partner's items and composes with the parent's final set.
type charmChild struct {
	extra itemset.Itemset
	tids  tidlist.Set
}

// charmExtend processes one level of sibling nodes, sorted by increasing
// support (CHARM's ordering heuristic: low-support nodes merge into their
// high-support partners most often). Work counters and the
// merge/subsumption tallies land in st. Cancellation is checked once per
// node; on an expired ctx the walk unwinds with a partial accumulator
// (the caller discards it).
func charmExtend(ctx context.Context, nodes []*charmNode, minsup int, acc *charmAcc, st *Stats) {
	sort.SliceStable(nodes, func(i, j int) bool {
		si, sj := nodes[i].tids.Support(), nodes[j].tids.Support()
		if si != sj {
			return si < sj
		}
		return nodes[i].set.Less(nodes[j].set)
	})
	for i := range nodes {
		if nodes[i] == nil {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		var children []charmChild
		for j := i + 1; j < len(nodes); j++ {
			if nodes[j] == nil {
				continue
			}
			st.Intersections++
			// No scratch: surviving children keep the result, so every
			// intersection gets fresh storage (as the List-only code did).
			y, _ := tidlist.IntersectSets(nil, nodes[i].tids, nodes[j].tids, &st.Kernel)
			ySup := y.Support()
			switch {
			case ySup == nodes[i].tids.Support() && ySup == nodes[j].tids.Support():
				// t(Xi) = t(Xj): Xj always co-occurs with Xi — fold it in.
				st.Merges++
				nodes[i].set = nodes[i].set.Union(nodes[j].set)
				nodes[j] = nil
			case ySup == nodes[i].tids.Support():
				// t(Xi) ⊂ t(Xj): Xi implies Xj; Xi's closure absorbs it,
				// Xj lives on (it occurs without Xi too).
				st.Merges++
				nodes[i].set = nodes[i].set.Union(nodes[j].set)
			case ySup == nodes[j].tids.Support():
				// t(Xi) ⊃ t(Xj): Xj implies Xi; the combination replaces
				// Xj, growing under Xi.
				if ySup >= minsup {
					children = append(children, charmChild{extra: nodes[j].set, tids: y})
				}
				nodes[j] = nil
			default:
				if ySup >= minsup {
					children = append(children, charmChild{extra: nodes[j].set, tids: y})
				}
			}
		}
		if len(children) > 0 {
			level := make([]*charmNode, len(children))
			for k, ch := range children {
				level[k] = &charmNode{set: nodes[i].set.Union(ch.extra), tids: ch.tids}
			}
			charmExtend(ctx, level, minsup, acc, st)
		}
		acc.insert(nodes[i].set, nodes[i].tids.Support(), nodes[i].tids, st)
	}
}

// charmAcc is the closed-set accumulator with the standard
// tid-sum-hashed subsumption check: a candidate is dropped iff an
// equal-support superset is already present.
type charmAcc struct {
	byHash map[int64][]mining.FrequentItemset
}

func (a *charmAcc) insert(set itemset.Itemset, sup int, tids tidlist.Set, st *Stats) {
	h := tidlist.HashTIDs(tids)
	for _, f := range a.byHash[h] {
		if f.Support == sup && set.SubsetOf(f.Set) {
			st.Subsumptions++
			return
		}
	}
	a.byHash[h] = append(a.byHash[h], mining.FrequentItemset{Set: set, Support: sup})
}
