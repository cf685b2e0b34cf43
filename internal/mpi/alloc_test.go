package mpi

import "testing"

// preposted is the program of a 2-rank world that runs rounds of batch
// messages: each round, rank 0 preposts batch receives, and rank 1
// matches each with an eager send once the barrier says they are all
// posted.
func preposted(rounds, batch int) Program {
	return func(r *Rank) {
		reqs := make([]*Request, batch)
		for range rounds {
			if r.Rank() == 0 {
				for i := range reqs {
					reqs[i] = r.Irecv(1, i, 0)
				}
				r.Barrier()
			} else {
				r.Barrier()
				for i := range reqs {
					reqs[i] = r.Isend(0, i, 0)
				}
			}
			r.Waitall(reqs...)
		}
	}
}

// TestRequestPathAllocs bounds the heap objects one preposted receive and
// its matching eager send cost on their way from mpi through host to nic
// and back. The world's fixed cost cancels in the difference between n
// and 2n messages.
func TestRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 256
	one := testing.AllocsPerRun(3, func() { Run(baseCfg(2), preposted(1, n)) })
	two := testing.AllocsPerRun(3, func() { Run(baseCfg(2), preposted(1, 2*n)) })
	per := (two - one) / n
	t.Logf("%.2f mallocs per preposted receive and eager send", per)
	if per > 7 {
		t.Errorf("%.2f mallocs per preposted receive and eager send, want <= 7", per)
	}
}

// BenchmarkPostedReceive is one preposted receive and the eager send that
// matches it, posted in batches of 64 per barrier round. World build is
// outside the timer.
func BenchmarkPostedReceive(b *testing.B) {
	const batch = 64
	w := NewWorld(baseCfg(2))
	for id := 0; id < 2; id++ {
		w.SpawnRank(id, preposted((b.N+batch-1)/batch, batch))
	}
	b.ReportAllocs()
	b.ResetTimer()
	w.RunSim()
}
