package analysis

import (
	"testing"

	"castan/internal/nf"
)

// BenchmarkLint is the yardstick for castan.Analyze's castan.static
// stage, which is one Lint call with these options. nat-rbtree and
// lb-rbtree are the catalog's largest modules.
func BenchmarkLint(b *testing.B) {
	for _, name := range []string{"nat-rbtree", "lb-rbtree"} {
		b.Run(name, func(b *testing.B) {
			inst, err := nf.New(name)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{EntryHints: NFEntryHints(), NoDeadDefs: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := Lint(inst.Mod, opts); rep.HasErrors() {
					b.Fatal(rep.Findings[0])
				}
			}
		})
	}
}
