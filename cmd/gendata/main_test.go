package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/db"
)

func TestRunPrintsProperties(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-d", "500"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "T10.I6.D500") || !strings.Contains(out.String(), "|D|=500") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestRunWritesBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.db")
	var out bytes.Buffer
	if err := run([]string{"-d", "200", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := db.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 200 {
		t.Fatalf("wrote %d transactions", d.Len())
	}
}

func TestRunWritesFIMI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.fimi")
	var out bytes.Buffer
	if err := run([]string{"-d", "100", "-o", path, "-format", "fimi"}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := db.DecodeFIMI(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 100 {
		t.Fatalf("wrote %d transactions", d.Len())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-d", "-5"}, &out); err == nil {
		t.Fatal("negative |D| should fail")
	}
	if err := run([]string{"-d", "10", "-o", "x", "-format", "nope"}, &out); err == nil {
		t.Fatal("bad format should fail")
	}
	if err := run([]string{"-d", "10", "-t", "NaN"}, &out); err == nil {
		t.Fatal("NaN |T| should fail")
	}
	if err := run([]string{"-bogusflag"}, &out); err == nil {
		t.Fatal("unknown flag should fail")
	}
}
