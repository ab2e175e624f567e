// Package datadist implements the Data Distribution algorithm (Agrawal &
// Shafer), the baseline "designed to utilize the total system memory by
// generating disjoint candidate sets on each processor. However to
// generate the global support each processor must scan the entire
// database (its local partition, and all the remote partitions) in all
// iterations. It thus suffers from high communication overhead, and
// performs very poorly when compared to Count Distribution."
//
// Candidates of each pass are dealt round-robin to processors; every
// processor counts its share against the whole database, paying disk for
// the local partition and network for every remote partition, then all
// processors exchange their locally-frequent candidates to construct the
// global L(k).
package datadist

import (
	"repro/internal/apriori"
	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// frequentSet crosses the all-gather with its global support.
type frequentSet struct {
	set   itemset.Itemset
	count int
}

// Mine runs Data Distribution on the simulated cluster. The result is
// identical to sequential Apriori's.
func Mine(cl *cluster.Cluster, d *db.Database, minsup int) (*mining.Result, cluster.Report) {
	if minsup < 1 {
		minsup = 1
	}
	t := cl.NumProcs()
	parts := d.Partition(t)
	fanout := d.NumItems
	if fanout < 64 {
		fanout = 64
	}

	var final *mining.Result

	cl.Run(func(p *cluster.Proc) {
		part := parts[p.ID()]
		res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}

		// Pass 1: L1 by sum-reduction, as in Count Distribution (the
		// candidate set of pass 1 is trivially small).
		p.ChargeScan(part.SizeBytes(), p.HostProcs())
		var itemOps int64
		for _, tx := range part.Transactions {
			itemOps += int64(len(tx.Items))
		}
		p.ChargeCPU(itemOps)
		gItems := cluster.SumReduceInt(p, apriori.CountItems(part))
		var l1 []itemset.Item
		for it, c := range gItems {
			if c >= minsup {
				res.Add(itemset.Itemset{itemset.Item(it)}, c)
				l1 = append(l1, itemset.Item(it))
			}
		}

		// Passes k >= 2: disjoint candidate shares, full-database scans.
		prev := []itemset.Itemset(nil) // global L(k-1), identical everywhere
		for k := 2; ; k++ {
			// Generate the global candidate set (identically on every
			// processor, so shares can be dealt without communication) and
			// keep the round-robin share. The share is inserted directly
			// into this processor's tree; the full set is never
			// materialized.
			mine := hashtree.New(k, hashtree.WithFanout(fanout))
			var numCands int64
			if k == 2 {
				for i := 0; i < len(l1); i++ {
					for j := i + 1; j < len(l1); j++ {
						if int(numCands)%t == p.ID() {
							mine.Insert(itemset.Itemset{l1[i], l1[j]})
						}
						numCands++
					}
				}
			} else {
				if len(prev) < 2 {
					break
				}
				tree := apriori.GenerateCandidates(prev, hashtree.WithFanout(fanout))
				for _, c := range tree.Candidates() {
					if int(numCands)%t == p.ID() {
						mine.Insert(c.Set)
					}
					numCands++
				}
			}
			p.ChargeOps(cluster.OpHashTree, numCands*int64(k))
			if numCands == 0 {
				break
			}

			// Count the share against the entire database: local partition
			// from disk, every remote partition over the interconnect.
			var ops int64
			var remoteBytes int64
			cs := mine.NewCountState()
			for q := 0; q < t; q++ {
				if q == p.ID() {
					p.ChargeScan(part.SizeBytes(), p.HostProcs())
				} else {
					remoteBytes += parts[q].SizeBytes()
				}
				ops += apriori.CountPartitionInto(mine, cs, parts[q])
			}
			p.ChargeNet(t-1, remoteBytes)
			factor := p.PageFactor(int64(p.HostProcs()) * mine.SizeBytes())
			p.ChargeOps(cluster.OpHashTree, ops*factor)

			// Exchange locally-determined frequent candidates; the union is
			// the global L(k) since shares are disjoint and counts global.
			var local []frequentSet
			var localBytes int64
			for _, c := range mine.Frequent(cs, minsup) {
				local = append(local, frequentSet{set: c.Set, count: int(cs.Counts[c.Index()])})
				localBytes += 4 * int64(k+1)
			}
			gathered := cluster.Gather(p, local, localBytes)
			prev = prev[:0]
			for _, fromProc := range gathered {
				for _, f := range fromProc {
					res.Add(f.set, f.count)
					prev = append(prev, f.set)
				}
			}
			itemset.Sort(prev)
		}

		res.Sort()
		if p.ID() == 0 {
			final = res
		}
	})

	return final, cl.Report()
}
