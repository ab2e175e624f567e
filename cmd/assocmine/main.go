// Command assocmine mines frequent itemsets and association rules from a
// database file produced by gendata (or generates one on the fly with
// -gen), using any of the repository's algorithms.
//
// Usage:
//
//	assocmine -db t10i6d100k.db -support 0.25 -algo eclat -rules 0.9 -top 20
//	assocmine -db retail.fimi -support 0.5 -maximal
//	assocmine -gen 50000 -support 0.1 -algo countdist -hosts 4 -procs 2 -report
//	assocmine -gen 50000 -support 0.25 -stats
//	assocmine -gen 100000 -support 0.25 -save t10.ds     # persist the vertical dataset
//	assocmine -load t10.ds -support 0.1                  # remine from the mmap store
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/db"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "assocmine:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("assocmine", flag.ContinueOnError)
	dbPath := fs.String("db", "", "database file (from gendata, or FIMI text: .fimi, .dat and .txt files, or any file with -format fimi)")
	format := fs.String("format", "", "input format: binary or fimi (default: fimi for .fimi, .dat and .txt files, binary otherwise)")
	genTx := fs.Int("gen", 0, "generate a T10.I6 database with this many transactions instead of reading one")
	support := fs.Float64("support", 0.25, "minimum support in percent")
	algoName := fs.String("algo", "eclat", "algorithm: eclat, apriori, countdist, datadist, canddist, hybrid, partition, sampling, dhp")
	reprName := fs.String("repr", "auto", "tid-set representation for Eclat-family algorithms: auto, sparse, bitset, roaring")
	parallel := fs.Int("parallel", 0, "worker goroutines for the real (non-simulated) eclat path; 0 means GOMAXPROCS, 1 forces sequential")
	topk := fs.Int("topk", 0, "mine only the K highest-support itemsets (local eclat path only; the support threshold rises adaptively)")
	contains := fs.String("contains", "", "comma-separated item ids every mined itemset must contain (targeted query, local eclat path only)")
	maximal := fs.Bool("maximal", false, "mine only maximal frequent itemsets (MaxEclat)")
	closed := fs.Bool("closed", false, "mine only closed frequent itemsets")
	hosts := fs.Int("hosts", 1, "simulated hosts H")
	procs := fs.Int("procs", 1, "simulated processors per host P")
	minConf := fs.Float64("rules", 0, "also derive rules at this confidence (0 disables)")
	top := fs.Int("top", 20, "print at most this many itemsets / rules")
	report := fs.Bool("report", false, "print the virtual-time cluster report")
	stats := fs.Bool("stats", false, "print the per-phase time breakdown (paper table 2 style)")
	outPath := fs.String("o", "", "write the full result (support\\titems per line) to this file")
	savePath := fs.String("save", "", "persist the loaded database as a stored vertical dataset directory before mining (crash-safe; reusable with -load or a daemon -data-dir)")
	loadPath := fs.String("load", "", "mine from a stored vertical dataset directory (written by -save); replaces -db/-gen and mines eclat straight from the mmap bundle")
	memBudget := fs.Int64("memory-budget", 0, "cap resident bytes of a stored-dataset mine (with -load): when the mapping exceeds the budget the mine runs out-of-core, class at a time; 0 disables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hosts < 1 {
		return fmt.Errorf("-hosts must be positive, got %d", *hosts)
	}
	if *procs < 1 {
		return fmt.Errorf("-procs must be positive, got %d", *procs)
	}
	if *top < 1 {
		return fmt.Errorf("-top must be positive, got %d", *top)
	}
	if *format != "" && *format != "binary" && *format != "fimi" {
		return fmt.Errorf("unknown format %q (want binary or fimi)", *format)
	}
	if *genTx < 0 {
		return fmt.Errorf("-gen must not be negative, got %d", *genTx)
	}
	mustContain, err := parseContains(*contains)
	if err != nil {
		return err
	}

	// The mining input is a repro.Source either way: -load serves the
	// stored dataset (vertical views over the mapping for every output,
	// horizontal decoded only if an algorithm scans it), everything else
	// wraps the in-memory database. MineFrom picks the path, so no
	// branching on input shape or output.
	var (
		d   *repro.Database
		src repro.Source
	)
	if *loadPath != "" {
		if *dbPath != "" || *genTx > 0 {
			return fmt.Errorf("-load replaces -db/-gen")
		}
		if *savePath != "" {
			return fmt.Errorf("-save with -load is redundant: the dataset is already stored")
		}
		stored, err := store.OpenDataset(*loadPath)
		if err != nil {
			return err
		}
		defer stored.Close()
		src = stored
	} else {
		if d, err = loadDatabase(*dbPath, *format, *genTx); err != nil {
			return err
		}
		src = repro.HorizontalSource(d)
	}
	numTx := src.NumTransactions()

	algo, err := repro.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	if *maximal && *closed {
		return fmt.Errorf("-maximal and -closed are mutually exclusive")
	}
	repr, err := repro.ParseRepresentation(*reprName)
	if err != nil {
		return err
	}

	output, kind := repro.OutputAll, "frequent"
	switch {
	case *maximal:
		output, kind = repro.OutputMaximal, "maximal frequent"
	case *closed:
		output, kind = repro.OutputClosed, "closed frequent"
	}

	opts := repro.MineOptions{
		Algorithm:      algo,
		Output:         output,
		SupportPct:     *support,
		Hosts:          *hosts,
		ProcsPerHost:   *procs,
		Representation: repr,
		Parallelism:    *parallel,
		TopK:           *topk,
		MustContain:    mustContain,
		MemoryBudget:   *memBudget,
	}
	// The library's one validation runs before -save writes anything.
	if _, err := opts.Check(src); err != nil {
		return err
	}

	if *savePath != "" {
		source := *dbPath
		if source == "" {
			source = fmt.Sprintf("generated T10.I6 n=%d", *genTx)
		}
		name := strings.TrimSuffix(filepath.Base(*savePath), ".ds")
		meta := store.DatasetMeta(name, source, d)
		if err := store.CreateDataset(*savePath, meta, d, store.VerticalLists(d)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved dataset %s (%d transactions) to %s\n", name, numTx, *savePath)
	}

	start := time.Now()
	tr := obsv.NewTrace()
	ctx := obsv.WithTrace(context.Background(), tr)
	res, info, err := repro.MineFrom(ctx, src, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%v mined %d %s itemsets (minsup %d of %d transactions, max size %d) in %v\n",
		info.Algorithm, res.Len(), kind, info.MinSup, numTx, res.MaxK(), time.Since(start).Round(time.Millisecond))
	if info.TopK > 0 {
		fmt.Fprintf(stdout, "top-%d query: effective minsup ended at %d\n", info.TopK, info.EffectiveMinSup)
	}
	if len(info.MustContain) > 0 {
		fmt.Fprintf(stdout, "targeted query: every itemset contains %v\n", info.MustContain)
	}

	byK := res.CountsByK()
	ks := make([]int, 0, len(byK))
	for k := range byK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		fmt.Fprintf(stdout, "  %6d %s %d-itemsets\n", byK[k], kind, k)
	}

	fmt.Fprintf(stdout, "\nTop itemsets by support:\n")
	sorted := append([]repro.FrequentItemset(nil), res.Itemsets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Support > sorted[j].Support })
	for i, f := range sorted {
		if i >= *top {
			break
		}
		fmt.Fprintf(stdout, "  %-24v sup=%d (%.2f%%)\n", f.Set, f.Support,
			100*float64(f.Support)/float64(numTx))
	}

	if *minConf > 0 {
		rs := repro.Rules(res, *minConf)
		fmt.Fprintf(stdout, "\n%d rules at confidence >= %.2f; top %d:\n", len(rs), *minConf, *top)
		for _, r := range repro.TopRules(rs, *top) {
			fmt.Fprintf(stdout, "  %v\n", r)
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := mining.Write(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %d itemsets to %s\n", res.Len(), *outPath)
	}

	if *stats {
		printPhaseTable(stdout, tr.Spans(), time.Since(start))
		if info.Parallelism > 0 {
			fmt.Fprintf(stdout, "Local parallelism: %d workers\n", info.Parallelism)
		}
	}

	if *report && info.Report != nil {
		rep := info.Report
		fmt.Fprintf(stdout, "\nSimulated cluster: H=%d P=%d  elapsed %v (virtual)\n",
			rep.Config.Hosts, rep.Config.ProcsPerHost, rep.Elapsed())
		for i := range rep.PerProc {
			fmt.Fprintf(stdout, "  proc %2d: %s\n", i, rep.PerProc[i].String())
		}
	}
	return nil
}

// printPhaseTable prints the run's phase spans in the style of the
// paper's per-phase breakdown (table 2). Wall-clock spans and the
// simulated cluster's virtual-time phases are totaled separately —
// summing across the two clocks would be meaningless.
func printPhaseTable(w io.Writer, spans []repro.PhaseSpan, wall time.Duration) {
	var real, virt []repro.PhaseSpan
	for _, sp := range spans {
		if sp.Virtual() {
			virt = append(virt, sp)
		} else {
			real = append(real, sp)
		}
	}
	fmt.Fprintf(w, "\nPhase breakdown (wall %v):\n", wall.Round(time.Microsecond))
	printSpanGroup(w, real, "")
	if len(virt) > 0 {
		fmt.Fprintf(w, "Simulated cluster phases (virtual time, max across processors):\n")
		printSpanGroup(w, virt, " (virtual)")
	}
}

func printSpanGroup(w io.Writer, spans []repro.PhaseSpan, note string) {
	var total int64
	for _, sp := range spans {
		total += sp.DurationNS
	}
	for _, sp := range spans {
		share := 0.0
		if total > 0 {
			share = 100 * float64(sp.DurationNS) / float64(total)
		}
		fmt.Fprintf(w, "  %-18s %14v %6.1f%%%s\n",
			sp.Name, time.Duration(sp.DurationNS).Round(time.Microsecond), share, note)
	}
	fmt.Fprintf(w, "  %-18s %14v %6.1f%%\n", "total",
		time.Duration(total).Round(time.Microsecond), 100.0)
}

// parseContains parses the -contains flag: a comma-separated list of
// non-negative integer item ids ("" means no restriction).
func parseContains(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var items []int
	for _, f := range strings.Split(s, ",") {
		it, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || it < 0 {
			return nil, fmt.Errorf("-contains: bad item %q (want non-negative integers)", f)
		}
		items = append(items, it)
	}
	return items, nil
}

func loadDatabase(path, format string, genTx int) (*repro.Database, error) {
	switch {
	case genTx > 0:
		return repro.Generate(repro.StandardConfig(genTx))
	case path != "":
		return db.Load(path, format)
	default:
		return nil, fmt.Errorf("provide -db FILE or -gen N")
	}
}
