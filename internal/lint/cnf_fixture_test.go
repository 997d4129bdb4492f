package lint

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sat"
	"repro/internal/topogen"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the prover CNF fixture")

// proverCNFFixture is the stable-configuration CNF of topogen.Default()
// seed 1, kept beside the solver so its tests can exercise an ISP-scale
// prover formula without importing this package.
var proverCNFFixture = filepath.Join("..", "sat", "testdata", "prove-default-1.cnf.gz")

// TestProverCNFFixture keeps the solver's prover fixture equal to what
// encodeStable produces today; -update rewrites it.
func TestProverCNFFixture(t *testing.T) {
	spec, err := topogen.Generate(topogen.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := topology.BuildSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var cnf bytes.Buffer
	if err := sat.WriteDIMACS(&cnf, encodeStable(buildProveIndex(sys)).f); err != nil {
		t.Fatal(err)
	}
	if *update {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		if _, err := zw.Write(cnf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(proverCNFFixture, gz.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(proverCNFFixture)
	if err != nil {
		t.Fatalf("open %s (run with -update to create): %v", proverCNFFixture, err)
	}
	defer fh.Close()
	zr, err := gzip.NewReader(fh)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cnf.Bytes(), want) {
		t.Fatalf("the prover CNF drifted from %s; rerun with -update", proverCNFFixture)
	}
}
