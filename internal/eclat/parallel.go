package eclat

import (
	"context"
	"sort"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/paircount"
	"repro/internal/tidlist"
)

// Phase names used in the per-processor time break-up (Table 2 reports
// "Setup" = PhaseInit + PhaseTransform).
const (
	PhaseInit      = "init"
	PhaseTransform = "transform"
	PhaseAsync     = "async"
	PhaseReduce    = "reduce"
)

// pairList is the unit of the transformation-phase exchange: a partial
// tid-list for one frequent 2-itemset, tagged with its pair.
type pairList struct {
	pair tidlist.Pair
	tids tidlist.List
}

// MineOpts runs four-phase parallel Eclat (figure 2) on the simulated
// cluster. The database is block-partitioned across all T processors;
// each processor executes the SPMD program, mining its classes with
// figure 3's search, and the final reduction sorts the gathered
// collection exactly as the local entry points do, so the result is
// identical to MineParallelLocal's all-frequent output on the same
// inputs. Policy, TopK, MustContain and Workers are ignored on the
// cluster forms (use the local entry points).
func MineOpts(cl *cluster.Cluster, d *db.Database, minsup int, opts Options) (*mining.Result, cluster.Report) {
	if minsup < 1 {
		minsup = 1
	}
	opts.Policy, opts.TopK, opts.MustContain = PolicyAll, 0, nil
	globalItems, globalPairs, locals := clusterMine(cl, d, minsup, opts)

	// Assemble the global collection as processor 0 gathers it.
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	for it, c := range globalItems {
		if c >= minsup {
			res.Add(itemset.Itemset{itemset.Item(it)}, c)
		}
	}
	for _, fp := range globalPairs {
		res.Add(fp.Pair.Itemset(), fp.Count)
	}
	for _, local := range locals {
		res.Itemsets = append(res.Itemsets, local...)
	}
	rep := cl.Report()
	rep.Representation = opts.Representation.String()
	return reduce(res, PolicyAll, 0), rep
}

// clusterMine is the four-phase SPMD program of MineOpts: initialization
// (section 5.1), transformation with the scheduled tid-list exchange
// (section 5.2), the asynchronous phase mining each owned class with
// figure 3's search (section 5.3), and the final reduction gathering the
// per-processor emissions (section 5.4). It returns the globally reduced
// item/pair counts and each processor's emitted itemsets.
func clusterMine(cl *cluster.Cluster, d *db.Database, minsup int, opts Options) (globalItems []int, globalPairs []paircount.FrequentPair, locals [][]mining.FrequentItemset) {
	t := cl.NumProcs()
	parts := d.Partition(t)
	locals = make([][]mining.FrequentItemset, t)

	cl.Run(func(p *cluster.Proc) {
		part := parts[p.ID()]

		// ---- Initialization phase (section 5.1) -------------------------
		p.SetPhase(PhaseInit)
		p.ChargeScan(part.SizeBytes(), p.HostProcs())
		itemCounts := make([]int, d.NumItems)
		pc := paircount.New(d.NumItems)
		var itemOps int64
		for _, tx := range part.Transactions {
			for _, it := range tx.Items {
				itemCounts[it]++
			}
			itemOps += int64(len(tx.Items))
		}
		p.ChargeCPU(itemOps)
		p.ChargeOps(cluster.OpPairCount, pc.AddPartition(part))
		gItems := cluster.SumReduceInt(p, itemCounts)
		gPairVec := cluster.SumReduceInt32(p, pc.Counts())
		gpc := paircount.FromCounts(d.NumItems, gPairVec)
		freqPairs := gpc.Frequent(minsup)
		p.ChargeCPU(int64(gpc.NumCells())) // threshold sweep over the triangular array
		if p.ID() == 0 {
			globalItems = gItems
			globalPairs = freqPairs
		}

		// ---- Transformation phase (section 5.2) -------------------------
		p.SetPhase(PhaseTransform)
		l2 := make([]itemset.Itemset, len(freqPairs))
		for i, fp := range freqPairs {
			l2[i] = fp.Pair.Itemset()
		}
		classes := eqclass.PruneSingletons(eqclass.Partition(l2))
		var sched eqclass.Assignment
		switch {
		case opts.RoundRobinSchedule:
			sched = eqclass.ScheduleRoundRobin(classes, t)
		case opts.SupportWeightedSchedule:
			pairSup := make(map[tidlist.Pair]int, len(freqPairs))
			for _, fp := range freqPairs {
				pairSup[fp.Pair] = fp.Count
			}
			weights := make([]int64, len(classes))
			for ci := range classes {
				ms := classes[ci].Members
				for i := 0; i < len(ms); i++ {
					for j := i + 1; j < len(ms); j++ {
						si := pairSup[tidlist.Pair{A: ms[i][0], B: ms[i][1]}]
						sj := pairSup[tidlist.Pair{A: ms[j][0], B: ms[j][1]}]
						if sj < si {
							si = sj
						}
						weights[ci] += int64(si)
					}
				}
			}
			sched = eqclass.ScheduleByWeight(weights, t)
		default:
			sched = eqclass.Schedule(classes, t)
		}
		p.ChargeCPU(int64(len(classes))) // scheduling sweep

		// Which pairs exist, and who owns each.
		owner := make(map[tidlist.Pair]int)
		want := make(map[tidlist.Pair]bool)
		for ci := range classes {
			for _, m := range classes[ci].Members {
				pr := tidlist.Pair{A: m[0], B: m[1]}
				owner[pr] = sched.Owner[ci]
				want[pr] = true
			}
		}

		// Second local scan: partial tid-lists for all frequent pairs.
		p.ChargeScan(part.SizeBytes(), p.HostProcs())
		partials := tidlist.BuildPairs(part, want)
		var buildOps int64
		for _, tx := range part.Transactions {
			l := int64(len(tx.Items))
			buildOps += l * (l - 1) / 2
		}
		p.ChargeOps(cluster.OpPairCount, buildOps)

		// Exchange: route each partial list to its owner. Payload for
		// ourselves stays local (G at its offset); the rest is R,
		// transmitted over the Memory Channel. Each list crosses the wire
		// in its chosen encoding, so the byte charge is the true encoded
		// size, not unconditionally 4 bytes per tid.
		out := make([][]pairList, t)
		var sentBytes, sentSparse, sentDense int64
		for pr, tids := range partials {
			dst := owner[pr]
			out[dst] = append(out[dst], pairList{pair: pr, tids: tids})
			if dst != p.ID() {
				n, enc := tidlist.EncodedSize(tids, opts.Representation)
				sentBytes += n
				if enc == tidlist.ReprBitset {
					sentDense += n
				} else {
					sentSparse += n
				}
			}
		}
		p.AddNetPayload(sentSparse, sentDense)
		// Deterministic order within each destination payload.
		for dst := range out {
			sort.Slice(out[dst], func(i, j int) bool {
				a, b := out[dst][i].pair, out[dst][j].pair
				if a.A != b.A {
					return a.A < b.A
				}
				return a.B < b.B
			})
		}
		in := cluster.Exchange(p, out, sentBytes)

		// Assemble global tid-lists for owned pairs: concatenate the
		// per-source partials in processor order — block partitions carry
		// increasing TID ranges, so the result is sorted without sorting.
		lists := make(map[tidlist.Pair]tidlist.List)
		var ownedBytes, partialBytes int64
		for _, pl := range partials {
			n, _ := tidlist.EncodedSize(pl, opts.Representation)
			partialBytes += n
		}
		for src := 0; src < t; src++ {
			for _, pl := range in[src] {
				lists[pl.pair] = append(lists[pl.pair], pl.tids...)
			}
		}
		for _, l := range lists {
			n, _ := tidlist.EncodedSize(l, opts.Representation)
			ownedBytes += n
		}
		// The inverted local database is written out to disk and read back
		// at the start of the asynchronous phase (the third and last scan).
		// The transformation works in anonymous memory-mapped regions — the
		// algorithm's one acknowledged weakness ("the one disadvantage of
		// our algorithm is the virtual memory it requires to perform the
		// transformation"): each of the host's processors holds its partial
		// and assembled lists, and overflowing physical memory turns the
		// region traffic into swap traffic.
		if opts.ExternalTransform {
			// External-memory transformation: spill the partial lists to
			// disk as they are built, then merge them into the owned
			// global lists in one more sequential pass. No paging — only
			// bounded buffers live in memory — at the price of writing and
			// re-reading the partials once.
			p.ChargeDiskWrite(partialBytes, p.HostProcs())
			p.ChargeScan(partialBytes, p.HostProcs())
			p.ChargeDiskWrite(ownedBytes, p.HostProcs())
		} else {
			resident := int64(p.HostProcs()) * (ownedBytes + partialBytes)
			factor := p.PageFactor(resident)
			p.ChargeDiskWrite(ownedBytes*factor, p.HostProcs())
		}

		// ---- Asynchronous phase (section 5.3) ---------------------------
		p.SetPhase(PhaseAsync)
		p.ChargeScan(ownedBytes, p.HostProcs())
		var st Stats
		w := &worker{st: &st, opts: opts, th: fixedThreshold(minsup), ar: &arena{}}
		var acc []mining.FrequentItemset
		emit := func(set itemset.Itemset, sup int) {
			acc = append(acc, mining.FrequentItemset{Set: set, Support: sup})
		}
		for _, ci := range sched.ClassesOf(p.ID()) {
			w.explore(context.Background(), classMembers(&classes[ci], lists, opts.Representation, &st.Kernel), 0, nil, emit)
		}
		chargeKernel(p, &st)
		locals[p.ID()] = acc

		// ---- Final reduction phase (section 5.4) ------------------------
		p.SetPhase(PhaseReduce)
		var localBytes int64
		for _, f := range acc {
			localBytes += 4*int64(f.Set.K()) + 4
		}
		cluster.Gather(p, localBytes, localBytes)
	})
	return globalItems, globalPairs, locals
}

// chargeKernel charges a processor's asynchronous-phase intersection work
// at the per-kernel rates — element comparisons of the sparse and mixed
// kernels at OpIntersect, words of the dense kernel at OpBitsetWord, and
// the roaring containers at the matching per-container rates (array
// containers compare elements like the merge kernel, bitmap containers
// stream words like the dense kernel) — and flushes the run's
// kernel-dispatch counts to the metrics registry.
func chargeKernel(p *cluster.Proc, st *Stats) {
	p.ChargeOps(cluster.OpIntersect, st.Kernel.SparseOps()+st.Kernel.RoaringElemOps())
	p.ChargeOps(cluster.OpBitsetWord, st.Kernel.WordsTouched()+st.Kernel.RoaringWords())
	p.ChargeCPU(st.Intersections)
	var prev Stats
	flushStats(&prev, st)
}
