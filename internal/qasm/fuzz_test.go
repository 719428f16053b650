package qasm

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse drives the parser — the front door of POST /v1/jobs and of
// every CLI that reads a .qasm file — with arbitrary source. Whatever
// arrives, Parse must return a circuit or an error, never panic.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.qasm"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range []string{
		"OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];",
		"OPENQASM 2.0;\nqreg q[2];\ngate g a,b { cx a,a; }\ng q[0],q[1];",
		"OPENQASM 2.0;\nqreg q[2];\ngate g a,b { cx a,b; }\ng q[0],q[0];",
		"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> c;\nif (c==1) x q[1];",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src, "fuzz") // an error is a fine outcome; a panic is the bug
	})
}
