package mining

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/itemset"
)

// Write serializes a result as a line-oriented text format that external
// tools (and the cmd pipelines) can consume:
//
//	# eclat-result minsup=<K> transactions=<N>
//	<support>\t<item> <item> ...
//
// Itemsets appear in the result's current order. Each line is encoded
// with strconv into one reused buffer, so a result of n itemsets costs n
// buffered writes and no formatting.
func Write(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	line := append(make([]byte, 0, 64), "# eclat-result minsup="...)
	line = strconv.AppendInt(line, int64(res.MinSup), 10)
	line = append(line, " transactions="...)
	line = strconv.AppendInt(line, int64(res.NumTransactions), 10)
	line = append(line, '\n')
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for _, f := range res.Itemsets {
		line = strconv.AppendInt(line[:0], int64(f.Support), 10)
		line = append(line, '\t')
		for i, it := range f.Set {
			if i > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendInt(line, int64(it), 10)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format written by Write.
func Read(r io.Reader) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("mining: empty result stream")
	}
	header := sc.Text()
	res := &Result{}
	if _, err := fmt.Sscanf(header, "# eclat-result minsup=%d transactions=%d",
		&res.MinSup, &res.NumTransactions); err != nil {
		return nil, fmt.Errorf("mining: bad header %q: %w", header, err)
	}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		supStr, itemsStr, ok := strings.Cut(text, "\t")
		if !ok {
			return nil, fmt.Errorf("mining: line %d: missing tab separator", line)
		}
		sup, err := strconv.Atoi(supStr)
		if err != nil {
			return nil, fmt.Errorf("mining: line %d: bad support: %w", line, err)
		}
		fields := strings.Fields(itemsStr)
		set := make(itemset.Itemset, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("mining: line %d: bad item %q: %w", line, f, err)
			}
			set = append(set, itemset.Item(v))
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("mining: line %d: empty itemset", line)
		}
		for i := 1; i < len(set); i++ {
			if set[i-1] >= set[i] {
				return nil, fmt.Errorf("mining: line %d: items not strictly increasing", line)
			}
		}
		res.Add(set, sup)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mining: %w", err)
	}
	return res, nil
}
