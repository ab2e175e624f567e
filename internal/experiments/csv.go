package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/eclat"
	"repro/internal/gen"
)

// WriteCSV regenerates the figure/table data and writes it as CSV files
// (figure6.csv, table2.csv, figure7.csv, phases.csv) into dir, ready for
// plotting. The same cached runs back the text renderings, so the two
// outputs always agree.
func (s *Suite) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}

	// figure6.csv: k, then one count column per database.
	if err := s.writeCSV(filepath.Join(dir, "figure6.csv"), func(w *csv.Writer) error {
		type curve struct {
			name string
			byK  map[int]int
		}
		var curves []curve
		maxK := 0
		for _, spec := range s.cfg.Sizes {
			d := s.DB(spec)
			res, _, _ := eclat.MineParallelLocal(context.Background(), d, d.MinSupCount(s.cfg.SupportPct), eclat.Options{Workers: 1})
			curves = append(curves, curve{name: gen.T10I6(spec.NumTx).Name(), byK: res.CountsByK()})
			if m := res.MaxK(); m > maxK {
				maxK = m
			}
		}
		header := []string{"k"}
		for _, c := range curves {
			header = append(header, c.name)
		}
		if err := w.Write(header); err != nil {
			return err
		}
		for k := 1; k <= maxK; k++ {
			row := []string{strconv.Itoa(k)}
			for _, c := range curves {
				row = append(row, strconv.Itoa(c.byK[k]))
			}
			if err := w.Write(row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// table2.csv: P,H,T, then per database CD seconds, Eclat seconds,
	// setup seconds, ratio.
	if err := s.writeCSV(filepath.Join(dir, "table2.csv"), func(w *csv.Writer) error {
		header := []string{"P", "H", "T"}
		for _, spec := range s.cfg.Sizes {
			header = append(header,
				spec.Analog+"_cd_s", spec.Analog+"_eclat_s", spec.Analog+"_setup_s", spec.Analog+"_ratio")
		}
		if err := w.Write(header); err != nil {
			return err
		}
		for _, hp := range s.cfg.Rows {
			row := []string{strconv.Itoa(hp.P), strconv.Itoa(hp.H), strconv.Itoa(hp.T())}
			for _, spec := range s.cfg.Sizes {
				repC, _ := s.Run("cd", spec, hp)
				repE, _ := s.Run("eclat", spec, hp)
				setup := repE.PhaseMaxNS(eclat.PhaseInit) + repE.PhaseMaxNS(eclat.PhaseTransform)
				row = append(row,
					fmt.Sprintf("%.3f", secs(repC.ElapsedNS)),
					fmt.Sprintf("%.3f", secs(repE.ElapsedNS)),
					fmt.Sprintf("%.3f", secs(setup)),
					fmt.Sprintf("%.2f", float64(repC.ElapsedNS)/float64(repE.ElapsedNS)))
			}
			if err := w.Write(row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// figure7.csv: database, P, H, T, speedup.
	if err := s.writeCSV(filepath.Join(dir, "figure7.csv"), func(w *csv.Writer) error {
		if err := w.Write([]string{"database", "P", "H", "T", "speedup"}); err != nil {
			return err
		}
		for _, spec := range s.cfg.Sizes {
			base, _ := s.Run("eclat", spec, HP{1, 1})
			rows := append([]HP(nil), s.cfg.Rows...)
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].T() < rows[j].T() })
			for _, hp := range rows {
				rep, _ := s.Run("eclat", spec, hp)
				if err := w.Write([]string{
					spec.Analog, strconv.Itoa(hp.P), strconv.Itoa(hp.H), strconv.Itoa(hp.T()),
					fmt.Sprintf("%.3f", float64(base.ElapsedNS)/float64(rep.ElapsedNS)),
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// phases.csv: database, P, H, init, transform, async, reduce, total.
	return s.writeCSV(filepath.Join(dir, "phases.csv"), func(w *csv.Writer) error {
		if err := w.Write([]string{"database", "P", "H", "init_s", "transform_s", "async_s", "reduce_s", "total_s"}); err != nil {
			return err
		}
		for _, spec := range s.cfg.Sizes {
			for _, hp := range s.cfg.Rows {
				rep, _ := s.Run("eclat", spec, hp)
				if err := w.Write([]string{
					spec.Analog, strconv.Itoa(hp.P), strconv.Itoa(hp.H),
					fmt.Sprintf("%.3f", secs(rep.PhaseMaxNS(eclat.PhaseInit))),
					fmt.Sprintf("%.3f", secs(rep.PhaseMaxNS(eclat.PhaseTransform))),
					fmt.Sprintf("%.3f", secs(rep.PhaseMaxNS(eclat.PhaseAsync))),
					fmt.Sprintf("%.3f", secs(rep.PhaseMaxNS(eclat.PhaseReduce))),
					fmt.Sprintf("%.3f", secs(rep.ElapsedNS)),
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (s *Suite) writeCSV(path string, fill func(*csv.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	w := csv.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("experiments: writing %s: %w", path, err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return fmt.Errorf("experiments: flushing %s: %w", path, err)
	}
	return f.Close()
}
