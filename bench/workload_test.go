package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streambc/internal/graph"
)

func readAll(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{graphFile, streamFile, scheduleFile, readsFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

func TestSameSeedSameFilesAndSharedInputs(t *testing.T) {
	mo, _ := findWorkload("mo_single")
	shard, _ := findWorkload("shard2_single")
	heavy, _ := findWorkload("mo_readheavy")
	if mo.inputKey() != shard.inputKey() {
		t.Fatalf("mo_single and shard2_single must share their input parameters: %+v vs %+v", mo.inputKey(), shard.inputKey())
	}
	horizon := 2 * time.Second
	a, b, c, d := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	for dir, gen := range map[string]struct {
		w    workloadSpec
		seed int64
	}{a: {mo, 7}, b: {shard, 7}, c: {mo, 8}, d: {heavy, 7}} {
		if err := generateInputs(dir, gen.w.inputKey(), gen.seed, horizon); err != nil {
			t.Fatal(err)
		}
	}
	fa, fb, fc, fd := readAll(t, a), readAll(t, b), readAll(t, c), readAll(t, d)
	for name := range fa {
		if !bytes.Equal(fa[name], fb[name]) {
			t.Errorf("%s differs between mo_single and shard2_single at the same seed", name)
		}
		// The seed draws the stream and the reads; the graph and the arrival
		// times are the workload's own fixed draw.
		seeded := name == streamFile || name == readsFile
		if same := bytes.Equal(fa[name], fc[name]); same == seeded {
			t.Errorf("%s: same for two seeds = %v, want %v", name, same, !seeded)
		}
	}
	if !bytes.Equal(fa[graphFile], fd[graphFile]) {
		t.Errorf("mo_readheavy should start from mo_single's graph at the same seed")
	}
	if bytes.Equal(fa[scheduleFile], fd[scheduleFile]) {
		t.Errorf("mo_readheavy has its own arrival rate, yet its schedule equals mo_single's")
	}
}

func TestStreamIsStationaryChurnWithLaggedInverses(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			if err := generateInputs(dir, w.inputKey(), 3, 4*time.Second); err != nil {
				t.Fatal(err)
			}
			in, err := loadInputs(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(in.Updates), in.arrivals()*w.Burst+w.DrainBlock*w.DrainBlocks; got != want {
				t.Fatalf("stream holds %d updates, want %d", got, want)
			}
			if in.Graph.N() != w.N {
				t.Fatalf("graph has %d vertices, want %d", in.Graph.N(), w.N)
			}
			g := in.Graph.Clone()
			m0 := g.M()
			last := map[graph.Edge]int{}
			removals := 0
			for i, u := range in.Updates {
				if w.Graph == graphHub && (u.U == 0 || u.V == 0) {
					t.Fatalf("update %d (%v) touches the hub", i, u)
				}
				e := u.Edge().Canonical()
				if j, seen := last[e]; seen && i-j < inverseLag {
					t.Fatalf("edge %v is updated at %d and again at %d: closer than %d", e, j, i, inverseLag)
				}
				last[e] = i
				if err := g.Apply(u); err != nil {
					t.Fatalf("update %d (%v) does not apply: %v", i, u, err)
				}
				if u.Remove {
					removals++
				}
				if m := g.M(); float64(m) < 0.98*float64(m0) || float64(m) > 1.02*float64(m0) {
					t.Fatalf("after update %d the graph has %d edges, outside ±2 %% of %d", i, m, m0)
				}
			}
			if frac := float64(removals) / float64(len(in.Updates)); frac < 0.45 || frac > 0.55 {
				t.Errorf("removals are %.3f of the stream, want about half", frac)
			}
			// The schedule is sorted, ends with the sentinel beyond the
			// horizon, and the reader's runs past it.
			for i := 1; i < len(in.Due); i++ {
				if in.Due[i] < in.Due[i-1] {
					t.Fatalf("due times not ascending at %d", i)
				}
			}
			if in.Due[len(in.Due)-1] < 4*time.Second || in.Due[len(in.Due)-2] >= 4*time.Second {
				t.Errorf("schedule must end with exactly one arrival at or past the horizon")
			}
			if in.Reads[len(in.Reads)-1].Due < 4*time.Second+readTail {
				t.Errorf("read schedule ends at %v, before horizon+tail", in.Reads[len(in.Reads)-1].Due)
			}
			kinds := map[readKind]int{}
			for _, r := range in.Reads {
				kinds[r.Kind]++
			}
			if share := float64(kinds[readVertex]) / float64(len(in.Reads)); share < 0.7 || share > 0.9 {
				t.Errorf("vertex reads are %.2f of the mix, want about 0.80", share)
			}
		})
	}
}
