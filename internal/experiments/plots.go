package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/asciiplot"
	"repro/internal/eclat"
	"repro/internal/gen"
)

// Figure6Plot renders figure 6 as an ASCII chart (log y-axis, as in the
// paper's figure).
func (s *Suite) Figure6Plot(w io.Writer) {
	maxK := 0
	type curve struct {
		name string
		byK  map[int]int
	}
	var curves []curve
	for _, spec := range s.cfg.Sizes {
		d := s.DB(spec)
		res, _, _ := eclat.MineParallelLocal(context.Background(), d, d.MinSupCount(s.cfg.SupportPct), eclat.Options{Workers: 1})
		curves = append(curves, curve{name: gen.T10I6(spec.NumTx).Name(), byK: res.CountsByK()})
		if m := res.MaxK(); m > maxK {
			maxK = m
		}
	}
	var xlabels []string
	for k := 1; k <= maxK; k++ {
		xlabels = append(xlabels, fmt.Sprintf("%d", k))
	}
	var series []asciiplot.Series
	for _, c := range curves {
		ys := make([]float64, maxK)
		for k := 1; k <= maxK; k++ {
			ys[k-1] = float64(c.byK[k])
		}
		series = append(series, asciiplot.Series{Name: c.name, Y: ys})
	}
	fmt.Fprint(w, asciiplot.Chart(
		fmt.Sprintf("Figure 6: frequent k-itemsets at %.2f%% support (log scale)", s.cfg.SupportPct),
		xlabels, series, asciiplot.Options{Width: 60, Height: 14, LogY: true}))
}

// Figure7Plot renders figure 7 as one speedup chart per database, x
// ordered by total processors.
func (s *Suite) Figure7Plot(w io.Writer) {
	rows := append([]HP(nil), s.cfg.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].T() < rows[j].T() })
	var xlabels []string
	for _, hp := range rows {
		xlabels = append(xlabels, fmt.Sprintf("%dx%d", hp.H, hp.P))
	}
	var series []asciiplot.Series
	for _, spec := range s.cfg.Sizes {
		base, _ := s.Run("eclat", spec, HP{1, 1})
		ys := make([]float64, len(rows))
		for i, hp := range rows {
			rep, _ := s.Run("eclat", spec, hp)
			ys[i] = float64(base.ElapsedNS) / float64(rep.ElapsedNS)
		}
		series = append(series, asciiplot.Series{Name: spec.Analog, Y: ys})
	}
	fmt.Fprint(w, asciiplot.Chart(
		"Figure 7: Eclat speedup over P=1,H=1 (x = HxP by total processors)",
		xlabels, series, asciiplot.Options{Width: 60, Height: 12}))
}
