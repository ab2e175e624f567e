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
// Itemsets appear in the result's current order, which every miner
// leaves canonical. Each line is encoded by appendLine into one reused
// buffer, so a result of n itemsets costs n buffered writes and no
// formatting.
func Write(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	line := appendHeader(make([]byte, 0, 64), res)
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for _, f := range res.Itemsets {
		line = appendLine(line[:0], f)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Encode returns Write's bytes for res in one slice of exactly their
// length: the lines are sized first, then appended.
func Encode(res *Result) []byte {
	n := len(headerPrefix) + decLen(res.MinSup) + len(headerMid) + decLen(res.NumTransactions) + 1
	for _, f := range res.Itemsets {
		n += decLen(f.Support) + 1 + max(len(f.Set), 1) // the tab, the spaces, the newline
		for _, it := range f.Set {
			n += decLen(int(it))
		}
	}
	buf := appendHeader(make([]byte, 0, n), res)
	for _, f := range res.Itemsets {
		buf = appendLine(buf, f)
	}
	return buf
}

const (
	headerPrefix = "# eclat-result minsup="
	headerMid    = " transactions="
)

// appendHeader appends the header line of res's encoding to dst.
func appendHeader(dst []byte, res *Result) []byte {
	dst = append(dst, headerPrefix...)
	dst = strconv.AppendInt(dst, int64(res.MinSup), 10)
	dst = append(dst, headerMid...)
	dst = strconv.AppendInt(dst, int64(res.NumTransactions), 10)
	return append(dst, '\n')
}

// appendLine appends f's line to dst: its support, a tab, its items
// separated by spaces, and a newline.
func appendLine(dst []byte, f FrequentItemset) []byte {
	dst = strconv.AppendInt(dst, int64(f.Support), 10)
	dst = append(dst, '\t')
	for i, it := range f.Set {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(it), 10)
	}
	return append(dst, '\n')
}

// decLen is the length of v in decimal, as strconv writes it.
func decLen(v int) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
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
