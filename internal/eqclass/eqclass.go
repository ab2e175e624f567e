// Package eqclass implements the itemset clustering of paper section 4.1:
// partitioning a lexicographically sorted L(k) into equivalence classes by
// common (k-1)-length prefix, and the greedy scheduling of section 5.2.1
// that assigns classes to processors by descending weight C(s,2), each to
// the least-loaded processor, ties broken by the smaller processor id.
package eqclass

import (
	"fmt"
	"sort"

	"repro/internal/itemset"
)

// Class is one equivalence class [a]: all members share the prefix a of
// length k-1 (for k-itemset members).
type Class struct {
	// Prefix is the shared (k-1)-prefix that names the class.
	Prefix itemset.Itemset
	// Members are the class's k-itemsets in lexicographic order.
	Members []itemset.Itemset
}

// Weight returns the scheduling weight C(s,2) with s members — the number
// of candidate joins the class will produce in the next iteration
// ("Since we have to consider all pairs for the next iteration, we assign
// the weight (s choose 2) to a class").
func (c *Class) Weight() int64 {
	return itemset.Binomial(len(c.Members), 2)
}

// Partition splits the sorted itemsets (all of equal size k >= 2) into
// equivalence classes by their (k-1)-prefix. Input order is preserved
// inside classes, and classes come out in lexicographic prefix order.
func Partition(sets []itemset.Itemset) []Class { return AppendPartition(nil, sets) }

// AppendPartition is Partition appending the classes to dst, so a caller
// can partition into storage it reuses. A class's Prefix is a capped view
// of its first member's leading items, and its Members a view of sets:
// the classes own no memory of their own.
func AppendPartition(dst []Class, sets []itemset.Itemset) []Class {
	if len(sets) == 0 {
		return dst
	}
	k := sets[0].K()
	if k < 2 {
		panic(fmt.Sprintf("eqclass: cannot partition %d-itemsets", k))
	}
	for lo := 0; lo < len(sets); {
		if sets[lo].K() != k {
			panic("eqclass: mixed itemset sizes")
		}
		hi := lo + 1
		for hi < len(sets) && sets[hi].K() == k && sets[hi].SharesPrefix(sets[lo]) {
			hi++
		}
		dst = append(dst, Class{
			Prefix:  sets[lo][: k-1 : k-1],
			Members: sets[lo:hi],
		})
		lo = hi
	}
	return dst
}

// PruneSingletons removes classes with a single member: they generate no
// candidates ("Any class with only 1 member can be eliminated").
func PruneSingletons(classes []Class) []Class {
	out := classes[:0]
	for _, c := range classes {
		if len(c.Members) > 1 {
			out = append(out, c)
		}
	}
	return out
}

// Assignment is the result of scheduling classes onto processors.
type Assignment struct {
	// Owner[i] is the processor assigned class i (indices into the input
	// slice of Schedule).
	Owner []int
	// Load[p] is the total weight assigned to processor p.
	Load []int64
}

// ClassesOf returns the indices of the classes owned by processor p, in
// input order.
func (a *Assignment) ClassesOf(p int) []int {
	var out []int
	for i, o := range a.Owner {
		if o == p {
			out = append(out, i)
		}
	}
	return out
}

// Imbalance returns maxLoad/avgLoad (1.0 is perfect); it returns 1 when
// there is no load.
func (a *Assignment) Imbalance() float64 {
	var total, max int64
	for _, l := range a.Load {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	avg := float64(total) / float64(len(a.Load))
	return float64(max) / avg
}

// Schedule performs the paper's greedy heuristic: sort classes on weight
// (descending), assign each in turn to the least-loaded processor,
// breaking ties by the smaller processor identifier. Classes of equal
// weight are considered in lexicographic prefix order so the schedule is
// deterministic. Weightless classes (singletons) are assigned too — they
// cost nothing but keep ownership total.
func Schedule(classes []Class, numProcs int) Assignment {
	if numProcs < 1 {
		panic(fmt.Sprintf("eqclass: invalid processor count %d", numProcs))
	}
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		wx, wy := classes[order[x]].Weight(), classes[order[y]].Weight()
		if wx != wy {
			return wx > wy
		}
		return classes[order[x]].Prefix.Less(classes[order[y]].Prefix)
	})

	a := Assignment{Owner: make([]int, len(classes)), Load: make([]int64, numProcs)}
	for _, ci := range order {
		best := 0
		for p := 1; p < numProcs; p++ {
			if a.Load[p] < a.Load[best] {
				best = p
			}
		}
		a.Owner[ci] = best
		a.Load[best] += classes[ci].Weight()
	}
	return a
}

// ScheduleByWeight runs the greedy least-loaded assignment with
// caller-supplied weights (one per class) instead of the default C(s,2).
// The paper suggests this refinement: "if we could better estimate the
// number of frequent itemsets that could be derived from an equivalence
// class we could use this estimation as our weight. We could also make
// use of the average support of the itemsets within a class". Ties break
// deterministically by input index.
func ScheduleByWeight(weights []int64, numProcs int) Assignment {
	if numProcs < 1 {
		panic(fmt.Sprintf("eqclass: invalid processor count %d", numProcs))
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		if weights[order[x]] != weights[order[y]] {
			return weights[order[x]] > weights[order[y]]
		}
		return order[x] < order[y]
	})
	a := Assignment{Owner: make([]int, len(weights)), Load: make([]int64, numProcs)}
	for _, ci := range order {
		best := 0
		for p := 1; p < numProcs; p++ {
			if a.Load[p] < a.Load[best] {
				best = p
			}
		}
		a.Owner[ci] = best
		a.Load[best] += weights[ci]
	}
	return a
}

// ScheduleRoundRobin deals classes to processors in input order with no
// regard for weight — the naive baseline the ablation benchmarks compare
// the paper's greedy heuristic against.
func ScheduleRoundRobin(classes []Class, numProcs int) Assignment {
	if numProcs < 1 {
		panic(fmt.Sprintf("eqclass: invalid processor count %d", numProcs))
	}
	a := Assignment{Owner: make([]int, len(classes)), Load: make([]int64, numProcs)}
	for i := range classes {
		p := i % numProcs
		a.Owner[i] = p
		a.Load[p] += classes[i].Weight()
	}
	return a
}
