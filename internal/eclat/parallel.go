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
// collection into the canonical order the local entry points merge
// theirs into, so the result is identical to MineParallelLocal's
// all-frequent output on the same inputs. The transformation works in
// memory-mapped regions, paged once the host's processors overflow its
// memory, or, with ExternalTransform, through bounded disk buffers.
// Policy, TopK, MustContain and Workers are ignored on the cluster forms
// (use the local entry points).
func MineOpts(cl *cluster.Cluster, d *db.Database, minsup int, opts Options) (*mining.Result, cluster.Report) {
	return clusterMine(cl, d, minsup, opts, 1)
}

// MineHybridOpts implements the hybrid parallelization the paper proposes
// as future work (section 8.1): "we plan to implement a hybrid
// parallelization where the database is partitioned only among the hosts
// ... the Compute_Frequent procedure could be carried out in parallel" by
// the processors within each host.
//
// It runs MineOpts's program with each host's P processors as one group:
// the database is block-partitioned across the H hosts and each host's
// processors scan disjoint chunks of its block (so the host disk moves
// each byte once), classes are dealt to hosts, the tid-list exchange
// runs between host leaders only, the host writes its inverted block
// once, and its classes are sub-dealt across its processors for the
// asynchronous phase. This removes both the per-processor disk
// contention and the T-way exchange that limit flat Eclat when P > 1;
// at P = 1 the hybrid is flat Eclat. ExternalTransform applies to the
// flat form only; Policy, TopK, MustContain and Workers are ignored, as
// on MineOpts.
func MineHybridOpts(cl *cluster.Cluster, d *db.Database, minsup int, opts Options) (*mining.Result, cluster.Report) {
	return clusterMine(cl, d, minsup, opts, cl.Config().ProcsPerHost)
}

// clusterMine is the four-phase SPMD program of both cluster forms:
// initialization (section 5.1), transformation with the scheduled
// tid-list exchange (section 5.2), the asynchronous phase mining each
// owned class with figure 3's search (section 5.3), and the final
// reduction gathering the per-processor emissions (section 5.4).
//
// The processors work in groups of g consecutive ids, each led by its
// first: a group scans one block of the database, one chunk per member;
// classes are dealt to groups; partial pair lists go to the owning
// group's leader and count as sent when they leave the group; and a
// group's classes are sub-dealt across its members. g = 1 is the paper's
// flat Eclat, g = P the section 8.1 hybrid.
func clusterMine(cl *cluster.Cluster, d *db.Database, minsup int, opts Options, g int) (*mining.Result, cluster.Report) {
	if minsup < 1 {
		minsup = 1
	}
	opts.Policy, opts.TopK, opts.MustContain = PolicyAll, 0, nil
	t := cl.NumProcs()
	groups := t / g
	// chunks[i]: the (i mod g)-th chunk of group i/g's block.
	chunks := make([]*db.Database, 0, t)
	for _, block := range d.Partition(groups) {
		chunks = append(chunks, block.Partition(g)...)
	}
	locals := make([][]mining.FrequentItemset, t)
	var globalItems []int
	var globalPairs []paircount.FrequentPair

	cl.Run(func(p *cluster.Proc) {
		chunk := chunks[p.ID()]
		group := p.ID() / g
		leader := group * g

		// ---- Initialization phase (section 5.1) -------------------------
		p.SetPhase(PhaseInit)
		p.ChargeScan(chunk.SizeBytes(), p.HostProcs())
		itemCounts := make([]int, d.NumItems)
		pc := paircount.New(d.NumItems)
		var itemOps int64
		for _, tx := range chunk.Transactions {
			for _, it := range tx.Items {
				itemCounts[it]++
			}
			itemOps += int64(len(tx.Items))
		}
		p.ChargeCPU(itemOps)
		p.ChargeOps(cluster.OpPairCount, pc.AddPartition(chunk))
		gItems := cluster.SumReduceInt(p, itemCounts)
		gpc := paircount.FromCounts(d.NumItems, cluster.SumReduceInt32(p, pc.Counts()))
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
		sched := scheduleClasses(classes, freqPairs, groups, opts)
		p.ChargeCPU(int64(len(classes))) // scheduling sweep

		// Which pairs exist, and which group owns each.
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
		p.ChargeScan(chunk.SizeBytes(), p.HostProcs())
		partials := tidlist.BuildPairs(chunk, want)
		var buildOps int64
		for _, tx := range chunk.Transactions {
			l := int64(len(tx.Items))
			buildOps += l * (l - 1) / 2
		}
		p.ChargeOps(cluster.OpPairCount, buildOps)

		// Exchange: route each partial list to its owning group's leader.
		// Payload that stays in the group crosses shared memory; the rest
		// is transmitted over the Memory Channel. Each list crosses the
		// wire in its chosen encoding, so the byte charge is the true
		// encoded size, not unconditionally 4 bytes per tid.
		out := make([][]pairList, t)
		var sentBytes, sentSparse, sentDense int64
		for pr, tids := range partials {
			dst := owner[pr]
			out[dst*g] = append(out[dst*g], pairList{pair: pr, tids: tids})
			if dst != group {
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

		// Assemble the global tid-lists of the group's pairs at its
		// leader: concatenate the per-source partials in processor order
		// — block partitions carry increasing TID ranges, so the result
		// is sorted without sorting. Other members receive nothing.
		lists := make(map[tidlist.Pair]tidlist.List)
		for src := 0; src < t; src++ {
			for _, pl := range in[src] {
				lists[pl.pair] = append(lists[pl.pair], pl.tids...)
			}
		}
		if g > 1 {
			// Share the leader's lists group-wide (shared memory: no
			// wire cost beyond the rendezvous).
			lists = cluster.Gather(p, lists, 0)[leader]
		}
		var listBytes int64
		for _, l := range lists {
			n, _ := tidlist.EncodedSize(l, opts.Representation)
			listBytes += n
		}
		// The inverted database is written out to disk and read back at
		// the start of the asynchronous phase (the third and last scan).
		if g > 1 {
			// A group writes its inverted block once, each member its
			// share.
			p.ChargeDiskWrite(listBytes*p.PageFactor(listBytes)/int64(g), p.HostProcs())
		} else {
			var partialBytes int64
			for _, pl := range partials {
				n, _ := tidlist.EncodedSize(pl, opts.Representation)
				partialBytes += n
			}
			if opts.ExternalTransform {
				// External-memory transformation: spill the partial lists
				// to disk as they are built, then merge them into the
				// owned global lists in one more sequential pass. No
				// paging — only bounded buffers live in memory — at the
				// price of writing and re-reading the partials once.
				p.ChargeDiskWrite(partialBytes, p.HostProcs())
				p.ChargeScan(partialBytes, p.HostProcs())
				p.ChargeDiskWrite(listBytes, p.HostProcs())
			} else {
				// The transformation works in anonymous memory-mapped
				// regions — the algorithm's one acknowledged weakness
				// ("the one disadvantage of our algorithm is the virtual
				// memory it requires to perform the transformation"):
				// each of the host's processors holds its partial and
				// assembled lists, and overflowing physical memory turns
				// the region traffic into swap traffic.
				resident := int64(p.HostProcs()) * (listBytes + partialBytes)
				p.ChargeDiskWrite(listBytes*p.PageFactor(resident), p.HostProcs())
			}
		}

		// ---- Asynchronous phase (section 5.3) ---------------------------
		p.SetPhase(PhaseAsync)
		groupClasses := sched.ClassesOf(group)
		sub := make([]eqclass.Class, len(groupClasses))
		for i, ci := range groupClasses {
			sub[i] = classes[ci]
		}
		subSched := eqclass.Schedule(sub, g)
		var readBytes int64
		var st Stats
		w := &worker{st: &st, opts: opts, th: fixedThreshold(minsup), ar: &arena{}}
		var acc []mining.FrequentItemset
		emit := func(set itemset.Itemset, sup int) {
			acc = append(acc, mining.FrequentItemset{Set: set, Support: sup})
		}
		for _, i := range subSched.ClassesOf(p.ID() - leader) {
			// The read-back is charged at the lists' encoded (on-disk)
			// size — the same basis the transformation write used — not
			// at the size of the in-memory sets classMembers materializes.
			for _, m := range sub[i].Members {
				n, _ := tidlist.EncodedSize(lists[tidlist.Pair{A: m[0], B: m[1]}], opts.Representation)
				readBytes += n
			}
			w.explore(context.Background(), classMembers(&sub[i], lists, opts.Representation, &st.Kernel), 0, nil, emit)
		}
		p.ChargeScan(readBytes, p.HostProcs())
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

	// Assemble the global collection as processor 0 gathers it, and sort
	// it into canonical order.
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
	res.Sort()
	rep := cl.Report()
	rep.Representation = opts.Representation.String()
	return res, rep
}

// scheduleClasses deals the classes to n owners by section 5.2.1's
// greedy C(s,2) weight schedule, or by one of its two ablations: naive
// round-robin dealing, or the support-aware weight — sum over member
// pairs of min(support_i, support_j).
func scheduleClasses(classes []eqclass.Class, freqPairs []paircount.FrequentPair, n int, opts Options) eqclass.Assignment {
	switch {
	case opts.RoundRobinSchedule:
		return eqclass.ScheduleRoundRobin(classes, n)
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
					weights[ci] += int64(min(si, sj))
				}
			}
		}
		return eqclass.ScheduleByWeight(weights, n)
	}
	return eqclass.Schedule(classes, n)
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
