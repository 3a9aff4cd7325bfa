package obs

import (
	"strings"
	"testing"
)

// FuzzParsePrometheus feeds arbitrary text through the exposition parser
// and checker: neither may panic, and a scrape the parser accepts must
// carry only legal family, sample and label names.
func FuzzParsePrometheus(f *testing.F) {
	var text strings.Builder
	if err := WritePrometheus(&text, promTestRegistry().Snapshot()); err != nil {
		f.Fatal(err)
	}
	exposition := text.String()
	f.Add(exposition)
	for _, cut := range []int{1, 10, len(exposition) / 3, len(exposition) / 2, len(exposition) - 2} {
		f.Add(exposition[:cut])
	}
	for _, s := range []string{
		"",
		"# HELP a a\n# TYPE a counter\na 1\n",
		"# HELP a a\n# TYPE a counter\na{k=\"v\",k2=\"x\\\"y\\n\"} 1 1700000000\n",
		"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"orphan 1\n",
		"# HELP 9bad x\n",
		"# TYPE a gaugeish\n",
		"# HELP a a\n# TYPE a counter\na{k=\"v\" 1\n",
		"# HELP a a\n# TYPE a counter\na{k=v} 1\n",
		"# HELP a a\n# TYPE a counter\na{=\"v\"} 1\n",
		"# HELP a a\n# TYPE a counter\na{k=\"v\\",
		"# HELP a a\n# TYPE a counter\na}{ 1\n",
		"# HELP a a\n# TYPE a counter\na nope\n",
		"# HELP a a\n# HELP a b\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		_ = CheckPrometheusText(strings.NewReader(text))
		families, err := ParsePrometheus(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, fam := range families {
			if !validPromName(fam.Name) {
				t.Fatalf("accepted family name %q", fam.Name)
			}
			for _, s := range fam.Samples {
				if !validPromName(s.Name) {
					t.Fatalf("accepted sample name %q", s.Name)
				}
				for _, l := range s.Labels {
					if !validPromName(l.Key) {
						t.Fatalf("accepted label name %q in %q", l.Key, s.Name)
					}
				}
			}
		}
	})
}
