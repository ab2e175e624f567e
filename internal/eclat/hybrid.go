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

// MineHybridOpts implements the hybrid parallelization the paper proposes
// as future work (section 8.1): "we plan to implement a hybrid
// parallelization where the database is partitioned only among the hosts
// ... the Compute_Frequent procedure could be carried out in parallel" by
// the processors within each host.
//
// The database is block-partitioned across the H hosts; each host's P
// processors scan disjoint chunks of the host partition (so the host disk
// moves each byte once), equivalence classes are scheduled across hosts,
// the tid-list exchange runs between host leaders only, and within a host
// the classes are sub-scheduled across its processors for the
// asynchronous phase. This removes both the per-processor disk
// contention and the T-way exchange that limit flat Eclat when P > 1.
// The classes are mined with figure 3's search and the gathered
// collection goes through the same final reduction as MineOpts; the
// host-level SPMD orchestration (cooperative scans, leader exchange,
// sub-scheduling) is what this entry point adds. Policy, TopK,
// MustContain and Workers are ignored, as on MineOpts.
func MineHybridOpts(cl *cluster.Cluster, d *db.Database, minsup int, opts Options) (*mining.Result, cluster.Report) {
	if minsup < 1 {
		minsup = 1
	}
	opts.Policy, opts.TopK, opts.MustContain = PolicyAll, 0, nil
	cfg := cl.Config()
	h, pp := cfg.Hosts, cfg.ProcsPerHost
	t := cl.NumProcs()

	hostParts := d.Partition(h)
	// chunk[i] for processor i: the i%P-th chunk of host i/P's partition.
	chunks := make([]*db.Database, t)
	for host := 0; host < h; host++ {
		sub := hostParts[host].Partition(pp)
		for q := 0; q < pp; q++ {
			chunks[host*pp+q] = sub[q]
		}
	}

	locals := make([]*mining.Result, t)
	var globalPairs []paircount.FrequentPair
	var globalItems []int

	cl.Run(func(p *cluster.Proc) {
		chunk := chunks[p.ID()]
		host := p.Host()
		leader := host * pp // first processor of this host
		local := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
		locals[p.ID()] = local

		// ---- Initialization: cooperative scan of the host partition -----
		p.SetPhase(PhaseInit)
		// Each processor reads only its chunk; with P concurrent scanners
		// the disk moves partition bytes exactly once.
		p.ChargeScan(chunk.SizeBytes(), pp)
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
		p.ChargeCPU(int64(gpc.NumCells()))
		if p.ID() == 0 {
			globalItems = gItems
			globalPairs = freqPairs
		}

		// ---- Transformation: host-level classes, leader exchange --------
		p.SetPhase(PhaseTransform)
		l2 := make([]itemset.Itemset, len(freqPairs))
		for i, fp := range freqPairs {
			l2[i] = fp.Pair.Itemset()
		}
		classes := eqclass.PruneSingletons(eqclass.Partition(l2))
		hostSched := eqclass.Schedule(classes, h)
		p.ChargeCPU(int64(len(classes)))

		hostOwner := make(map[tidlist.Pair]int)
		want := make(map[tidlist.Pair]bool)
		for ci := range classes {
			for _, m := range classes[ci].Members {
				pr := tidlist.Pair{A: m[0], B: m[1]}
				hostOwner[pr] = hostSched.Owner[ci]
				want[pr] = true
			}
		}

		// Second cooperative scan: partials from this chunk only.
		p.ChargeScan(chunk.SizeBytes(), pp)
		partials := tidlist.BuildPairs(chunk, want)
		var buildOps int64
		for _, tx := range chunk.Transactions {
			l := int64(len(tx.Items))
			buildOps += l * (l - 1) / 2
		}
		p.ChargeOps(cluster.OpPairCount, buildOps)

		// Exchange between hosts: every processor routes its partials to
		// the owning host's leader; intra-host payloads cross shared
		// memory, not the Memory Channel.
		out := make([][]pairList, t)
		var sentBytes, sentSparse, sentDense int64
		for pr, tids := range partials {
			dstHost := hostOwner[pr]
			out[dstHost*pp] = append(out[dstHost*pp], pairList{pair: pr, tids: tids})
			if dstHost != host {
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

		// Leaders assemble the host's global tid-lists; chunk partials
		// arrive in processor order = TID order, so concatenation stays
		// sorted.
		assembled := map[tidlist.Pair]tidlist.List{}
		if p.ID() == leader {
			for src := 0; src < t; src++ {
				for _, pl := range in[src] {
					assembled[pl.pair] = append(assembled[pl.pair], pl.tids...)
				}
			}
		}
		// Share the assembled lists host-wide (shared memory: no wire
		// cost beyond the rendezvous).
		allAssembled := cluster.Gather(p, assembled, 0)
		lists := allAssembled[leader]

		var hostBytes int64
		for _, l := range lists {
			n, _ := tidlist.EncodedSize(l, opts.Representation)
			hostBytes += n
		}
		// The host's inverted partition is written once, cooperatively.
		factor := p.PageFactor(hostBytes)
		p.ChargeDiskWrite(hostBytes*factor/int64(pp), pp)

		// ---- Asynchronous phase: sub-schedule classes within the host ---
		p.SetPhase(PhaseAsync)
		myHostClasses := hostSched.ClassesOf(host)
		sub := make([]eqclass.Class, len(myHostClasses))
		for i, ci := range myHostClasses {
			sub[i] = classes[ci]
		}
		subSched := eqclass.Schedule(sub, pp)
		var myBytes int64
		var st Stats
		w := &worker{st: &st, opts: opts, th: fixedThreshold(minsup), ar: &arena{}}
		for i := range sub {
			if subSched.Owner[i] != p.ID()-leader {
				continue
			}
			// The read-back is charged at the lists' encoded (on-disk)
			// size — the same basis the transformation write used — not at
			// the size of the in-memory sets classMembers materializes.
			for _, m := range sub[i].Members {
				n, _ := tidlist.EncodedSize(lists[tidlist.Pair{A: m[0], B: m[1]}], opts.Representation)
				myBytes += n
			}
			members := classMembers(&sub[i], lists, opts.Representation, &st.Kernel)
			w.explore(context.Background(), members, 0, nil, local.Add)
		}
		p.ChargeScan(myBytes, pp)
		chargeKernel(p, &st)

		// ---- Final reduction --------------------------------------------
		p.SetPhase(PhaseReduce)
		var localBytes int64
		for _, f := range local.Itemsets {
			localBytes += 4*int64(f.Set.K()) + 4
		}
		cluster.Gather(p, localBytes, localBytes)
	})

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
		res.Itemsets = append(res.Itemsets, local.Itemsets...)
	}
	rep := cl.Report()
	rep.Representation = opts.Representation.String()
	return reduce(res, PolicyAll, 0), rep
}
