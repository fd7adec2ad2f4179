// Package repro_test holds the benchmark harness: one testing.B target
// per table and figure of the reconstructed evaluation (see README.md,
// "Experiment families"), plus micro-benchmarks of the substrates. Each
// experiment bench regenerates its table/figure at Quick scale per
// iteration; run with
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hpcc"
	"repro/internal/linalg"
	"repro/internal/mem"
	"repro/internal/mp"
	"repro/internal/stream"
)

// benchExperiment runs one registered experiment per iteration on its
// default platform set.
func benchExperiment(b *testing.B, id string) {
	benchExperimentOn(b, id, "")
}

// benchExperimentOn runs one experiment per iteration on a named
// platform preset ("" = the default set) — the platform request axis
// the registry refactor added.
func benchExperimentOn(b *testing.B, id, platform string) {
	b.Helper()
	e, ok := core.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	req := core.Request{Scale: core.Quick, Platform: platform}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, req); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

func BenchmarkT1PlatformTable(b *testing.B)   { benchExperiment(b, "T1") }
func BenchmarkT2StreamTable(b *testing.B)     { benchExperiment(b, "T2") }
func BenchmarkT3HPCCTable(b *testing.B)       { benchExperiment(b, "T3") }
func BenchmarkT4PlatformCompare(b *testing.B) { benchExperiment(b, "T4") }

func BenchmarkF1P2PLatency(b *testing.B)       { benchExperiment(b, "F1") }
func BenchmarkF2P2PBandwidth(b *testing.B)     { benchExperiment(b, "F2") }
func BenchmarkF3BiBandwidth(b *testing.B)      { benchExperiment(b, "F3") }
func BenchmarkF4MultiPair(b *testing.B)        { benchExperiment(b, "F4") }
func BenchmarkF5Collectives(b *testing.B)      { benchExperiment(b, "F5") }
func BenchmarkF6CollAlgos(b *testing.B)        { benchExperiment(b, "F6") }
func BenchmarkF7StreamScaling(b *testing.B)    { benchExperiment(b, "F7") }
func BenchmarkF8HPL(b *testing.B)              { benchExperiment(b, "F8") }
func BenchmarkF9GUPS(b *testing.B)             { benchExperiment(b, "F9") }
func BenchmarkF10PTRANS(b *testing.B)          { benchExperiment(b, "F10") }
func BenchmarkF11FFT(b *testing.B)             { benchExperiment(b, "F11") }
func BenchmarkF12EagerRendezvous(b *testing.B) { benchExperiment(b, "F12") }
func BenchmarkF13LogGPFit(b *testing.B)        { benchExperiment(b, "F13") }
func BenchmarkF14Placement(b *testing.B)       { benchExperiment(b, "F14") }
func BenchmarkF15AppKernels(b *testing.B)      { benchExperiment(b, "F15") }
func BenchmarkF16HPLBlockSize(b *testing.B)    { benchExperiment(b, "F16") }

func BenchmarkM1LatencyLadder(b *testing.B)  { benchExperiment(b, "M1") }
func BenchmarkM2TLBStress(b *testing.B)      { benchExperiment(b, "M2") }
func BenchmarkM3PageSizeTable(b *testing.B)  { benchExperiment(b, "M3") }
func BenchmarkM4HierarchyFit(b *testing.B)   { benchExperiment(b, "M4") }
func BenchmarkM5NUMAPlacement(b *testing.B)  { benchExperiment(b, "M5") }
func BenchmarkM6PlacementCurve(b *testing.B) { benchExperiment(b, "M6") }

// Platform-qualified targets: the same experiments restricted to one
// preset via the request axis, so the per-platform cost is tracked in
// the bench trajectory alongside the default-set cost.
func BenchmarkT1OnGigE8n(b *testing.B)  { benchExperimentOn(b, "T1", "gige-8n") }
func BenchmarkM3OnBGP64n(b *testing.B)  { benchExperimentOn(b, "M3", "bgp-64n") }
func BenchmarkM5OnFat1n(b *testing.B)   { benchExperimentOn(b, "M5", "fat-1n") }
func BenchmarkF14OnBGP64n(b *testing.B) { benchExperimentOn(b, "F14", "bgp-64n") }

// --- substrate micro-benchmarks ---

// BenchmarkP2PPingPongInProc measures the runtime's real (wall-clock)
// small-message half round trip on the in-process fabric.
func BenchmarkP2PPingPongInProc(b *testing.B) {
	for _, size := range []int{8, 4096, 65536} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			err := mp.Run(2, mp.Config{Fabric: mp.InProc}, func(c *mp.Comm) error {
				buf := make([]byte, size)
				peer := 1 - c.Rank()
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(peer, 1, buf); err != nil {
							return err
						}
						if _, err := c.Recv(peer, 1, buf); err != nil {
							return err
						}
					} else {
						if _, err := c.Recv(peer, 1, buf); err != nil {
							return err
						}
						if err := c.Send(peer, 1, buf); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduce measures the real cost of an 8-rank allreduce on
// the in-process fabric for each algorithm.
func BenchmarkAllreduce(b *testing.B) {
	algos := map[string]mp.AllreduceAlgo{
		"recdoubling":  mp.AllreduceRecursiveDoubling,
		"rabenseifner": mp.AllreduceRabenseifner,
		"ring":         mp.AllreduceRing,
	}
	for name, algo := range algos {
		b.Run(name, func(b *testing.B) {
			err := mp.Run(8, mp.Config{Fabric: mp.InProc, Allreduce: algo}, func(c *mp.Comm) error {
				in := make([]float64, 4096)
				out := make([]float64, 4096)
				for i := 0; i < b.N; i++ {
					if err := c.Allreduce(mp.OpSum, in, out); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkGemm measures the blocked DGEMM kernel.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := linalg.New(n, n)
			y := linalg.New(n, n)
			z := linalg.New(n, n)
			x.FillRandom(1)
			y.FillRandom(2)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := linalg.Gemm(1, x, y, 0, z, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLUBlockSize ablates the HPL panel width (the NB design
// choice).
func BenchmarkLUBlockSize(b *testing.B) {
	const n = 256
	for _, nb := range []int{8, 32, 64, 128} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := linalg.New(n, n)
				a.FillRandom(uint64(i))
				piv := make([]int, n)
				b.StartTimer()
				if err := linalg.Getrf(a, piv, nb, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamTriad measures the real host Triad bandwidth.
func BenchmarkStreamTriad(b *testing.B) {
	const n = 1 << 20
	res, err := stream.Run(stream.Config{N: n, NTimes: 3, Threads: 0, FirstTouch: true})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.SetBytes(24 * n)
	cfg := stream.Config{N: n, NTimes: 1, Threads: 0, FirstTouch: true}
	for i := 0; i < b.N; i++ {
		if _, err := stream.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointerChase measures the raw dependent-load latency kernel
// at an in-cache and an out-of-cache working set.
func BenchmarkPointerChase(b *testing.B) {
	for _, size := range []int{32 << 10, 8 << 20} {
		b.Run(fmt.Sprintf("ws=%d", size), func(b *testing.B) {
			res, err := mem.Chase(mem.ChaseConfig{Bytes: size, Iters: b.N, Trials: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Seconds*1e9, "ns/access")
		})
	}
}

// BenchmarkHPLSim measures a full simulated HPL factorization.
func BenchmarkHPLSim(b *testing.B) {
	m := cluster.IBCluster()
	for i := 0; i < b.N; i++ {
		err := mp.Run(4, mp.Config{Fabric: mp.Sim, Model: m}, func(c *mp.Comm) error {
			_, err := hpcc.HPL(c, hpcc.HPLConfig{
				N: 128, NB: 32, Seed: uint64(i), ComputeRate: m.FlopsPerCore, SkipCheck: true,
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
