package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure CSVs under testdata/")

// stripTiming drops the cum_seconds column (the fifth), the only field of
// a figure CSV that varies from run to run.
func stripTiming(csv []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(csv), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(line, ",")
		out.WriteString(strings.Join(append(f[:4:4], f[5:]...), ","))
	}
	return out.Bytes()
}

// TestFigureGolden pins the Fig. 3 and Fig. 4 CSVs, timing column
// stripped, over the paper's ε sweep at reduced sizes: node counts,
// errors, bit widths and norms must not move when the core changes
// without meaning to change results. Regenerate deliberately with
// go test ./internal/bench -run TestFigureGolden -update.
func TestFigureGolden(t *testing.T) {
	p := smallParams()
	p.EpsList = PaperEpsList
	p.Stride = 8
	for _, fig := range []string{"3", "4"} {
		t.Run("fig"+fig, func(t *testing.T) {
			res, err := Figure(fig, p)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteCSV(&buf, res); err != nil {
				t.Fatal(err)
			}
			got := stripTiming(buf.Bytes())
			path := filepath.Join("testdata", "fig"+fig+".csv")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from %s:\n%s", res.Name, path, firstDiff(got, want))
			}
		})
	}
}

// firstDiff reports the first differing line of two CSVs.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "line " + strconv.Itoa(i+1) + ":\n  got  " + gl + "\n  want " + wl
		}
	}
	return "(no line differs)"
}
