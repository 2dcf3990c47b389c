// Package check verifies a compiled TILT program from its parts alone,
// without calling any of the compiler's own validators: it replays the
// routing, re-checks the tape schedule, and checks every two-qubit gate
// against the head width.
package check

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/mapping"
	"repro/internal/schedule"
)

// Program is the part of a compilation the checks read.
type Program struct {
	// Native is the logical circuit over {RX, RY, RZ, XX}.
	Native *circuit.Circuit
	// Physical is the routed circuit over tape slots, with SWAPs.
	Physical *circuit.Circuit
	// Initial and Final are the logical→physical placements before and
	// after routing.
	Initial, Final *mapping.Mapping
	// Schedule is the tape itinerary for Physical.
	Schedule *schedule.Schedule
	// Ions and Head describe the device.
	Ions, Head int
}

// All runs every check and returns the first failure.
func All(p Program) error {
	if err := Spans(p.Physical, p.Head); err != nil {
		return err
	}
	if err := Replay(p); err != nil {
		return err
	}
	return Schedule(p.Physical, p.Schedule, p.Ions, p.Head)
}

// op is one gate as seen from the logical qubits it acts on.
type op struct {
	kind   circuit.Kind
	theta  float64
	qubits [3]int // logical operands in gate order; unused slots are -1
}

func (o op) String() string {
	return fmt.Sprintf("%s(%g)%v", o.kind, o.theta, o.qubits)
}

func logicalOp(g circuit.Gate, toLogical func(int) int) op {
	o := op{kind: g.Kind, theta: g.Theta, qubits: [3]int{-1, -1, -1}}
	for i, q := range g.Qubits {
		o.qubits[i] = toLogical(q)
	}
	return o
}

func sameOp(a, b op) bool {
	return a.kind == b.kind && a.qubits == b.qubits &&
		(a.theta == b.theta || math.IsNaN(a.theta) && math.IsNaN(b.theta))
}

// Replay walks the physical circuit from the initial placement, applying
// each SWAP to a tracked slot→logical table. Every other gate is mapped
// back to logical qubits and appended to each operand's sequence; those
// per-qubit sequences must equal the native circuit's, and the tracked
// placement must end at the final one.
func Replay(p Program) error {
	n := p.Native.NumQubits()
	if p.Initial.Len() != n || p.Final.Len() != n {
		return fmt.Errorf("replay: placements cover %d/%d qubits, native has %d",
			p.Initial.Len(), p.Final.Len(), n)
	}
	slots := p.Physical.NumQubits()
	slotToLogical := make([]int, slots)
	for i := range slotToLogical {
		slotToLogical[i] = -1
	}
	for l := 0; l < n; l++ {
		s := p.Initial.Phys(l)
		if s < 0 || s >= slots || slotToLogical[s] != -1 {
			return fmt.Errorf("replay: initial placement puts qubit %d on slot %d", l, s)
		}
		slotToLogical[s] = l
	}
	want := perQubit(p.Native.Gates(), n, func(q int) int { return q })
	got := make([][]op, n)
	for gi, g := range p.Physical.Gates() {
		for _, q := range g.Qubits {
			if q < 0 || q >= slots {
				return fmt.Errorf("replay: physical gate %d uses slot %d outside the chain", gi, q)
			}
		}
		if g.Kind == circuit.SWAP {
			a, b := g.Qubits[0], g.Qubits[1]
			slotToLogical[a], slotToLogical[b] = slotToLogical[b], slotToLogical[a]
			continue
		}
		o := logicalOp(g, func(s int) int { return slotToLogical[s] })
		for i, l := range o.qubits[:len(g.Qubits)] {
			if l < 0 {
				return fmt.Errorf("replay: physical gate %d (%s) acts on empty slot %d", gi, g, g.Qubits[i])
			}
			got[l] = append(got[l], o)
		}
	}
	for l := 0; l < n; l++ {
		if len(got[l]) != len(want[l]) {
			return fmt.Errorf("replay: qubit %d runs %d gates, native has %d", l, len(got[l]), len(want[l]))
		}
		for i := range want[l] {
			if !sameOp(got[l][i], want[l][i]) {
				return fmt.Errorf("replay: qubit %d gate %d is %s, native has %s", l, i, got[l][i], want[l][i])
			}
		}
	}
	for l := 0; l < n; l++ {
		s := p.Final.Phys(l)
		if s < 0 || s >= slots || slotToLogical[s] != l {
			return fmt.Errorf("replay: qubit %d ends on slot %d but the final placement says %d", l, trackedSlot(slotToLogical, l), s)
		}
	}
	return nil
}

func trackedSlot(slotToLogical []int, l int) int {
	for s, x := range slotToLogical {
		if x == l {
			return s
		}
	}
	return -1
}

// perQubit lists, for each logical qubit, the gates touching it in order.
func perQubit(gates []circuit.Gate, n int, toLogical func(int) int) [][]op {
	out := make([][]op, n)
	for _, g := range gates {
		o := logicalOp(g, toLogical)
		for _, l := range o.qubits[:len(g.Qubits)] {
			out[l] = append(out[l], o)
		}
	}
	return out
}

// Schedule re-checks a tape itinerary: every gate of the physical circuit
// runs exactly once, inside its step's head window, and in program order on
// each qubit.
func Schedule(c *circuit.Circuit, s *schedule.Schedule, ions, head int) error {
	if s == nil {
		return fmt.Errorf("schedule: missing")
	}
	if len(s.Steps) != s.Moves {
		return fmt.Errorf("schedule: %d steps but %d moves reported", len(s.Steps), s.Moves)
	}
	ran := make([]bool, c.Len())
	// last[q] is the index of the last gate run on slot q; a later gate on
	// q must have a larger index.
	last := make([]int, ions)
	for i := range last {
		last[i] = -1
	}
	dist, prev := 0, -1
	for si, st := range s.Steps {
		if st.Pos < 0 || st.Pos+head > ions {
			return fmt.Errorf("schedule: step %d places the head at %d on a %d-ion chain", si, st.Pos, ions)
		}
		if prev >= 0 {
			dist += abs(st.Pos - prev)
		}
		prev = st.Pos
		for _, gi := range st.Gates {
			if gi < 0 || gi >= c.Len() {
				return fmt.Errorf("schedule: step %d names gate %d of %d", si, gi, c.Len())
			}
			if ran[gi] {
				return fmt.Errorf("schedule: gate %d runs twice", gi)
			}
			ran[gi] = true
			for _, q := range c.Gate(gi).Qubits {
				if q < st.Pos || q >= st.Pos+head {
					return fmt.Errorf("schedule: step %d runs gate %d on slot %d outside window [%d,%d]",
						si, gi, q, st.Pos, st.Pos+head-1)
				}
				if gi < last[q] {
					return fmt.Errorf("schedule: gate %d runs after gate %d on slot %d", gi, last[q], q)
				}
				last[q] = gi
			}
		}
	}
	for gi, ok := range ran {
		if !ok {
			return fmt.Errorf("schedule: gate %d never runs", gi)
		}
	}
	if dist != s.Dist {
		return fmt.Errorf("schedule: head travels %d spacings but %d reported", dist, s.Dist)
	}
	return nil
}

// Spans checks that every two-qubit gate spans at most head−1 slots.
func Spans(c *circuit.Circuit, head int) error {
	for gi, g := range c.Gates() {
		if len(g.Qubits) != 2 {
			continue
		}
		if d := abs(g.Qubits[0] - g.Qubits[1]); d > head-1 {
			return fmt.Errorf("span: gate %d (%s) spans %d > %d", gi, g, d, head-1)
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
