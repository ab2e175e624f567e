package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mining"
)

func writeFIMI(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.fimi")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMinesFIMI(t *testing.T) {
	path := writeFIMI(t, "1 2 3\n1 2\n1 2 3\n2 3\n")
	var out bytes.Buffer
	if err := run([]string{"-db", path, "-format", "fimi", "-support", "50", "-top", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Eclat mined 7 frequent itemsets") {
		t.Fatalf("output:\n%s", s)
	}
}

// TestRunInfersFIMIFromExtension: without -format, a .fimi file is read
// as FIMI text, as the daemon reads it.
func TestRunInfersFIMIFromExtension(t *testing.T) {
	path := writeFIMI(t, "1 2 3\n1 2\n1 2 3\n2 3\n")
	var out bytes.Buffer
	if err := run([]string{"-db", path, "-support", "50", "-top", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "Eclat mined 7 frequent itemsets") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestRunAlgorithmsAndViews(t *testing.T) {
	path := writeFIMI(t, strings.Repeat("1 2 3\n1 2\n4 5\n", 20))
	for _, extra := range [][]string{
		{"-algo", "apriori"},
		{"-algo", "countdist", "-hosts", "2", "-procs", "2", "-report"},
		{"-algo", "partition"},
		{"-maximal"},
		{"-closed"},
		{"-rules", "0.8"},
	} {
		var out bytes.Buffer
		args := append([]string{"-db", path, "-format", "fimi", "-support", "10"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if !strings.Contains(out.String(), "itemsets") {
			t.Fatalf("%v output:\n%s", extra, out.String())
		}
	}
}

func TestRunWritesResult(t *testing.T) {
	in := writeFIMI(t, "1 2\n1 2\n3\n")
	outPath := filepath.Join(t.TempDir(), "res.txt")
	var out bytes.Buffer
	if err := run([]string{"-db", in, "-format", "fimi", "-support", "50", "-o", outPath}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := mining.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("result file empty")
	}
}

// TestRunSaveAndLoad round-trips a dataset through the persistent
// store: -save writes a dataset directory, and -load mines from it with
// the same output as the in-memory run, for every output and algorithm.
func TestRunSaveAndLoad(t *testing.T) {
	in := writeFIMI(t, strings.Repeat("1 2 3\n1 2\n2 3 4\n", 30))
	dsPath := filepath.Join(t.TempDir(), "tri.ds")
	origOut := filepath.Join(t.TempDir(), "orig.txt")
	var out bytes.Buffer
	if err := run([]string{"-db", in, "-format", "fimi", "-support", "10", "-save", dsPath, "-o", origOut}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "saved dataset tri") {
		t.Fatalf("save output:\n%s", out.String())
	}

	// Every -load run, whatever output or algorithm it asks for, must
	// byte-equal the same run on the in-memory database.
	for _, extra := range [][]string{
		{},
		{"-repr", "sparse"},
		{"-repr", "bitset"},
		{"-parallel", "2"},
		{"-maximal"},
		{"-maximal", "-parallel", "2"},
		{"-closed"},
		{"-closed", "-repr", "roaring"},
		{"-algo", "apriori"},
	} {
		loadOut := filepath.Join(t.TempDir(), "load.txt")
		out.Reset()
		args := append([]string{"-load", dsPath, "-support", "10", "-o", loadOut}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		memOut := origOut
		if len(extra) > 0 {
			memOut = filepath.Join(t.TempDir(), "mem.txt")
			args = append([]string{"-db", in, "-format", "fimi", "-support", "10", "-o", memOut}, extra...)
			if err := run(args, &out); err != nil {
				t.Fatalf("%v in memory: %v", extra, err)
			}
		}
		got, err := os.ReadFile(loadOut)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(memOut)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: -load result differs from the in-memory mine", extra)
		}
	}
	// -load excludes the other input sources, and -save with -load is
	// rejected.
	if err := run([]string{"-load", dsPath, "-gen", "100"}, &out); err == nil {
		t.Fatal("-load with -gen should fail")
	}
	if err := run([]string{"-load", dsPath, "-save", dsPath + "2"}, &out); err == nil {
		t.Fatal("-load with -save should fail")
	}
	if err := run([]string{"-load", filepath.Join(t.TempDir(), "missing.ds")}, &out); err == nil {
		t.Fatal("loading a missing dataset should fail")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing input should fail")
	}
	if err := run([]string{"-gen", "100", "-algo", "nope"}, &out); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if err := run([]string{"-gen", "100", "-maximal", "-closed"}, &out); err == nil {
		t.Fatal("maximal+closed should fail")
	}
	if err := run([]string{"-db", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing file should fail")
	}
	path := writeFIMI(t, "1\n")
	if err := run([]string{"-db", path, "-format", "weird"}, &out); err == nil {
		t.Fatal("bad format should fail")
	}
}

func TestRunRejectsInvalidFlags(t *testing.T) {
	path := writeFIMI(t, "1 2\n1 2\n")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", path, "-format", "fimi", "-hosts", "0"}, "-hosts"},
		{[]string{"-db", path, "-format", "fimi", "-hosts", "-3"}, "-hosts"},
		{[]string{"-db", path, "-format", "fimi", "-procs", "0"}, "-procs"},
		{[]string{"-db", path, "-format", "fimi", "-top", "0"}, "-top"},
		{[]string{"-db", path, "-format", "fimi", "-support", "-0.5"}, "-support"},
		{[]string{"-db", path, "-format", "fimi", "-support", "Inf"}, "invalid support"},
		{[]string{"-db", path, "-format", "fimi", "-support", "1e300"}, "invalid support"},
		{[]string{"-db", path, "-format", "fimi", "-support", "NaN"}, "invalid support"},
		{[]string{"-db", path, "-format", "csv"}, "format"},
		{[]string{"-gen", "-1"}, "-gen"},
		{[]string{"-db", path, "-format", "fimi", "-algo", "countdist", "-hosts", "9", "-procs", "8"}, "cluster too large"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Fatalf("run(%v) succeeded, want error about %s", tc.args, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%v) error %q does not mention %s", tc.args, err, tc.want)
		}
	}
}
