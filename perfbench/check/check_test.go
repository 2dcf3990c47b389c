package check

import (
	"context"
	"strings"
	"testing"

	tilt "repro"
	"repro/internal/circuit"
	"repro/internal/mapping"
	"repro/internal/schedule"
	"repro/internal/workloads"
)

// compile builds a Program with the stock TILT backend.
func compile(t *testing.T, c *circuit.Circuit, ions, head int) Program {
	t.Helper()
	a, err := tilt.NewTILT(tilt.WithDevice(ions, head)).Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	cr := a.Compile
	return Program{
		Native: cr.Native, Physical: cr.Physical,
		Initial: cr.InitialMapping, Final: cr.FinalMapping,
		Schedule: cr.Schedule, Ions: ions, Head: head,
	}
}

// small is a routed program with SWAPs on a short chain.
func small(t *testing.T) Program {
	t.Helper()
	p := compile(t, workloads.QFTN(12).Circuit, 12, 4)
	swaps := 0
	for _, g := range p.Physical.Gates() {
		if g.Kind == circuit.SWAP {
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("test program has no SWAPs to corrupt")
	}
	return p
}

// without returns c minus gate i.
func without(c *circuit.Circuit, i int) *circuit.Circuit {
	out := circuit.New(c.NumQubits())
	for k, g := range c.Gates() {
		if k != i {
			out.MustAdd(g.Kind, g.Theta, g.Qubits...)
		}
	}
	return out
}

// replaced returns c with gate i replaced by g.
func replaced(c *circuit.Circuit, i int, g circuit.Gate) *circuit.Circuit {
	out := circuit.New(c.NumQubits())
	for k, h := range c.Gates() {
		if k == i {
			h = g
		}
		out.MustAdd(h.Kind, h.Theta, h.Qubits...)
	}
	return out
}

func copySchedule(s *schedule.Schedule) *schedule.Schedule {
	out := &schedule.Schedule{Moves: s.Moves, Dist: s.Dist}
	for _, st := range s.Steps {
		out.Steps = append(out.Steps, schedule.Step{Pos: st.Pos, Gates: append([]int(nil), st.Gates...)})
	}
	return out
}

func wantCaught(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s was not caught", what)
	}
	t.Logf("%s caught: %v", what, err)
}

func TestTableIIPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the six Table II circuits twice")
	}
	for _, b := range workloads.All() {
		for _, head := range []int{16, 32} {
			p := compile(t, b.Circuit, b.Qubits(), head)
			if err := All(p); err != nil {
				t.Errorf("%s head %d: %v", b.Name, head, err)
			}
		}
	}
}

func TestSmallPasses(t *testing.T) {
	if err := All(small(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCatchesDroppedGate(t *testing.T) {
	p := small(t)
	for i, g := range p.Physical.Gates() {
		if g.Kind != circuit.SWAP {
			p.Physical = without(p.Physical, i)
			break
		}
	}
	wantCaught(t, Replay(p), "dropped gate")
}

func TestCatchesMistrackedSwap(t *testing.T) {
	p := small(t)
	for i, g := range p.Physical.Gates() {
		if g.Kind != circuit.SWAP {
			continue
		}
		// Point the SWAP at a neighbouring pair of slots: the gates after
		// it now land on the wrong logical qubits.
		a, b := g.Qubits[0], g.Qubits[1]
		if b+1 < p.Physical.NumQubits() {
			b++
		} else {
			a--
		}
		p.Physical = replaced(p.Physical, i, circuit.Gate{Kind: circuit.SWAP, Qubits: []int{a, b}})
		break
	}
	wantCaught(t, Replay(p), "mis-tracked SWAP")
}

func TestCatchesDroppedSwap(t *testing.T) {
	p := small(t)
	for i, g := range p.Physical.Gates() {
		if g.Kind == circuit.SWAP {
			p.Physical = without(p.Physical, i)
			break
		}
	}
	wantCaught(t, Replay(p), "dropped SWAP")
}

func TestCatchesWrongFinalMapping(t *testing.T) {
	p := small(t)
	l2p := p.Final.LogicalToPhysical()
	l2p[0], l2p[1] = l2p[1], l2p[0]
	m, err := mapping.FromLogicalToPhysical(l2p)
	if err != nil {
		t.Fatal(err)
	}
	p.Final = m
	wantCaught(t, Replay(p), "wrong final mapping")
}

func TestCatchesGateOutsideWindow(t *testing.T) {
	p := small(t)
	s := copySchedule(p.Schedule)
	moved := false
	for si, st := range s.Steps {
		for _, gi := range st.Gates {
			lo := p.Physical.NumQubits()
			for _, q := range p.Physical.Gate(gi).Qubits {
				lo = min(lo, q)
			}
			// Start the window just right of the gate's lowest slot.
			if pos := lo + 1; pos+p.Head <= p.Ions {
				s.Steps[si].Pos = pos
				moved = true
				break
			}
		}
		if moved {
			break
		}
	}
	if !moved {
		t.Fatal("no step could be moved")
	}
	err := Schedule(p.Physical, s, p.Ions, p.Head)
	wantCaught(t, err, "gate outside window")
	if err != nil && !strings.Contains(err.Error(), "outside window") && !strings.Contains(err.Error(), "travels") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCatchesOrderAndDuplicates(t *testing.T) {
	p := small(t)
	s := copySchedule(p.Schedule)
	// Reverse the first step with two gates on a shared slot.
	reversed := false
	for si, st := range s.Steps {
		for k := 0; k+1 < len(st.Gates) && !reversed; k++ {
			a, b := p.Physical.Gate(st.Gates[k]), p.Physical.Gate(st.Gates[k+1])
			if shares(a, b) {
				st.Gates[k], st.Gates[k+1] = st.Gates[k+1], st.Gates[k]
				s.Steps[si] = st
				reversed = true
			}
		}
	}
	if !reversed {
		t.Fatal("no reorderable pair")
	}
	wantCaught(t, Schedule(p.Physical, s, p.Ions, p.Head), "program-order violation")

	s = copySchedule(p.Schedule)
	s.Steps[0].Gates = append(s.Steps[0].Gates, s.Steps[0].Gates[0])
	wantCaught(t, Schedule(p.Physical, s, p.Ions, p.Head), "gate run twice")

	s = copySchedule(p.Schedule)
	last := len(s.Steps) - 1
	s.Steps[last].Gates = s.Steps[last].Gates[:len(s.Steps[last].Gates)-1]
	wantCaught(t, Schedule(p.Physical, s, p.Ions, p.Head), "gate never run")
}

func shares(a, b circuit.Gate) bool {
	for _, x := range a.Qubits {
		for _, y := range b.Qubits {
			if x == y {
				return true
			}
		}
	}
	return false
}

func TestCatchesWideGate(t *testing.T) {
	p := small(t)
	for i, g := range p.Physical.Gates() {
		if len(g.Qubits) == 2 {
			wide := circuit.Gate{Kind: g.Kind, Theta: g.Theta, Qubits: []int{0, p.Head}}
			p.Physical = replaced(p.Physical, i, wide)
			break
		}
	}
	wantCaught(t, Spans(p.Physical, p.Head), "gate wider than the head")
}
