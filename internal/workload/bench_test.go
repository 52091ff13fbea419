package workload

import "testing"

// BenchmarkWalkerNext measures the per-instruction cost of goodpath stream
// generation.
func BenchmarkWalkerNext(b *testing.B) {
	spec, err := NewBenchmark("gzip")
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWalker(spec)
	if err != nil {
		b.Fatal(err)
	}
	var ins Instruction
	for i := 0; i < 50_000; i++ {
		w.NextInto(&ins) // reach steady state (call stack at depth, phases warm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.NextInto(&ins)
	}
}

// BenchmarkWrongPathNext measures badpath stream generation.
func BenchmarkWrongPathNext(b *testing.B) {
	spec, err := NewBenchmark("gzip")
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWalker(spec)
	if err != nil {
		b.Fatal(err)
	}
	wp := NewWrongPath(w)
	wp.Redirect(0x1000)
	var ins Instruction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wp.NextInto(&ins)
		if ins.Kind == KindBranch {
			wp.ResolveBranch(&ins, i%2 == 0)
		}
	}
}

// BenchmarkNewWalker measures program construction: one op builds every
// bundled benchmark's program, the per-cell setup a campaign pays before
// it simulates anything.
func BenchmarkNewWalker(b *testing.B) {
	specs := make([]*Spec, len(BenchmarkNames))
	for i, name := range BenchmarkNames {
		specs[i] = MustBenchmark(name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := NewWalker(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
