package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden files under testdata instead of
// comparing against them:
//
//	go test ./internal/experiments/ -run 'Golden' -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata (chaos, pressure, push, abuse)")

// checkGolden compares got byte for byte against testdata/file, or
// rewrites the file under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden %s.\nRegenerate with -update if the change is intentional.\ngot:\n%s", path, got)
	}
}
