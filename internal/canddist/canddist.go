// Package canddist implements the Candidate Distribution algorithm
// (Agrawal & Shafer), the third baseline of the paper (section 3.2): it
// runs like Count Distribution up to a chosen repartitioning pass l, then
// partitions the candidates by equivalence class, selectively replicates
// the database so that each processor can count its classes' candidates
// independently, and proceeds asynchronously — broadcasting local
// frequent sets for pruning without blocking on them.
//
// "Candidate Distribution pays the cost of redistributing the database,
// and it then scans the local database partition repeatedly. The
// redistributed database will usually be larger than D/P" — both effects
// are visible in the report: the one-time exchange volume, and a
// per-iteration scan of a replica larger than the block partition.
package canddist

import (
	"sort"

	"repro/internal/apriori"
	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eqclass"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/paircount"
)

// Phase names for the time break-up.
const (
	PhaseCountDist   = "countdist"   // passes before the repartitioning
	PhaseRepartition = "repartition" // class scheduling + database replication
	PhaseAsync       = "async"       // independent local passes
)

// Options configures the algorithm.
type Options struct {
	// RepartitionPass is the pass l at which candidates are partitioned
	// and the database replicated. The paper's experiments used l = 4;
	// values below 3 are clamped to 3 (L2 must exist to form classes).
	RepartitionPass int
}

// Mine runs Candidate Distribution with the paper's default l = 4.
func Mine(cl *cluster.Cluster, d *db.Database, minsup int) (*mining.Result, cluster.Report) {
	return MineOpts(cl, d, minsup, Options{RepartitionPass: 4})
}

// MineOpts runs Candidate Distribution with explicit options. The result
// is identical to sequential Apriori's.
func MineOpts(cl *cluster.Cluster, d *db.Database, minsup int, opts Options) (*mining.Result, cluster.Report) {
	if minsup < 1 {
		minsup = 1
	}
	l := opts.RepartitionPass
	if l < 3 {
		l = 3
	}
	t := cl.NumProcs()
	parts := d.Partition(t)
	fanout := d.NumItems
	if fanout < 64 {
		fanout = 64
	}

	locals := make([]*mining.Result, t)
	shared := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}

	cl.Run(func(p *cluster.Proc) {
		part := parts[p.ID()]
		local := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
		locals[p.ID()] = local

		// ---- Count-Distribution passes 1 .. l-1 -------------------------
		p.SetPhase(PhaseCountDist)
		p.ChargeScan(part.SizeBytes(), p.HostProcs())
		var itemOps int64
		for _, tx := range part.Transactions {
			itemOps += int64(len(tx.Items))
		}
		p.ChargeCPU(itemOps)
		gItems := cluster.SumReduceInt(p, apriori.CountItems(part))
		if p.ID() == 0 {
			for it, c := range gItems {
				if c >= minsup {
					shared.Add(itemset.Itemset{itemset.Item(it)}, c)
				}
			}
		}

		// Pass 2 through the triangular array (as in our Eclat and CCPD
		// implementations, so the pre-repartition passes are not the
		// differentiator between the algorithms).
		p.ChargeScan(part.SizeBytes(), p.HostProcs())
		pc := paircount.New(d.NumItems)
		p.ChargeOps(cluster.OpPairCount, pc.AddPartition(part))
		gPairs := paircount.FromCounts(d.NumItems, cluster.SumReduceInt32(p, pc.Counts()))
		p.ChargeCPU(int64(gPairs.NumCells()))
		var prev []itemset.Itemset
		for _, fp := range gPairs.Frequent(minsup) {
			set := fp.Pair.Itemset()
			if p.ID() == 0 {
				shared.Add(set, fp.Count)
			}
			prev = append(prev, set)
		}

		for k := 3; k < l && len(prev) > 1; k++ {
			var tree *hashtree.Tree
			if p.ID() == 0 {
				tree = apriori.GenerateCandidates(prev, hashtree.WithFanout(fanout))
			}
			tree = cluster.Broadcast(p, 0, tree, 0)
			p.ChargeOps(cluster.OpHashTree, int64(tree.Len())*int64(k))
			if tree.Len() == 0 {
				prev = nil
				break
			}
			p.ChargeScan(part.SizeBytes(), p.HostProcs())
			state := tree.NewCountState()
			ops := apriori.CountPartitionInto(tree, state, part)
			factor := p.PageFactor(int64(p.HostProcs()) * tree.SizeBytes())
			p.ChargeOps(cluster.OpHashTree, ops*factor)
			global := cluster.SumReduceInt32(p, state.Counts)
			prev = prev[:0]
			for i, c := range tree.Candidates() {
				if int(global[i]) >= minsup {
					if p.ID() == 0 {
						shared.Add(c.Set, int(global[i]))
					}
					prev = append(prev, c.Set)
				}
			}
		}

		// ---- Repartitioning pass ----------------------------------------
		// Partition L(l-1) into equivalence classes, schedule them, and
		// replicate the database so each processor holds every transaction
		// containing one of its class prefixes.
		p.SetPhase(PhaseRepartition)
		classes := eqclass.PruneSingletons(eqclass.Partition(prev))
		sched := eqclass.Schedule(classes, t)
		p.ChargeCPU(int64(len(classes)))

		myMembers := make([]itemset.Itemset, 0)
		prefixByProc := make([][]itemset.Itemset, t)
		for ci := range classes {
			owner := sched.Owner[ci]
			prefixByProc[owner] = append(prefixByProc[owner], classes[ci].Prefix)
			if owner == p.ID() {
				myMembers = append(myMembers, classes[ci].Members...)
			}
		}

		// Route each local transaction to every processor whose prefix set
		// it touches (the selective replication exchange).
		out := make([][]db.Transaction, t)
		var sentBytes int64
		for _, tx := range part.Transactions {
			for dst := 0; dst < t; dst++ {
				for _, pre := range prefixByProc[dst] {
					if pre.SubsetOf(tx.Items) {
						out[dst] = append(out[dst], tx)
						if dst != p.ID() {
							sentBytes += 8 + 4*int64(len(tx.Items))
						}
						break
					}
				}
			}
		}
		in := cluster.Exchange(p, out, sentBytes)
		replica := &db.Database{NumItems: d.NumItems}
		for src := 0; src < t; src++ {
			replica.Transactions = append(replica.Transactions, in[src]...)
		}
		p.ChargeDiskWrite(replica.SizeBytes(), p.HostProcs())

		// ---- Asynchronous passes k >= l ---------------------------------
		// Each processor now proceeds independently on its replica. Local
		// frequent sets are broadcast for pruning but nobody waits for
		// them; we prune against what is locally known (our own classes),
		// which is safe — unpruned candidates simply fail the count.
		p.SetPhase(PhaseAsync)
		mine := myMembers
		for k := l; len(mine) > 1; k++ {
			itemset.Sort(mine)
			tree := apriori.GenerateCandidatesNoPrune(mine, hashtree.WithFanout(fanout))
			p.ChargeOps(cluster.OpHashTree, int64(tree.Len())*int64(k))
			if tree.Len() == 0 {
				break
			}
			p.ChargeScan(replica.SizeBytes(), p.HostProcs())
			cs := tree.NewCountState()
			ops := apriori.CountPartitionInto(tree, cs, replica)
			factor := p.PageFactor(int64(p.HostProcs()) * (tree.SizeBytes() + replica.SizeBytes()))
			p.ChargeOps(cluster.OpHashTree, ops*factor)
			mine = mine[:0]
			var bcastBytes int64
			for _, c := range tree.Frequent(cs, minsup) {
				local.Add(c.Set, int(cs.Counts[c.Index()]))
				mine = append(mine, c.Set)
				bcastBytes += 4 * int64(k+1)
			}
			// Asynchronous pruning broadcast: pay the wire cost, no barrier.
			p.ChargeNet(t-1, bcastBytes*int64(t-1))
		}
	})

	// Final gather (the harness assembles what processor 0 would print).
	res := shared
	for _, local := range locals {
		res.Itemsets = append(res.Itemsets, local.Itemsets...)
	}
	// The pre-repartition levels l' with 3 <= l' < l were added by proc 0;
	// deduplicate nothing — class ownership makes deep itemsets disjoint.
	sort.Slice(res.Itemsets, func(i, j int) bool {
		return res.Itemsets[i].Set.Less(res.Itemsets[j].Set)
	})
	return res, cl.Report()
}
