package trace

import (
	"fmt"
	"io"
	"strings"

	"muzzle/internal/compiler"
	"muzzle/internal/machine"
	"muzzle/internal/sim"
)

// SVGOptions tune the timeline rendering.
type SVGOptions struct {
	// Width is the drawing width in pixels (0 = 1200).
	Width int
	// RowHeight is the per-trap lane height in pixels (0 = 28).
	RowHeight int
	// Params supply the operation durations (zero value = defaults).
	Params sim.TimeParams
}

// WriteSVG renders the compiled schedule as a trap x time Gantt chart:
// one horizontal lane per trap, a rectangle per operation (gates in blue,
// shuttle primitives in orange/red), using the same per-trap-clock timing
// semantics as the simulator. The output is a self-contained SVG document.
func WriteSVG(w io.Writer, res *compiler.Result, opt SVGOptions) error {
	if opt.Width <= 0 {
		opt.Width = 1200
	}
	if opt.RowHeight <= 0 {
		opt.RowHeight = 28
	}
	if err := opt.Params.Validate(); err != nil {
		opt.Params = sim.DefaultTimeParams()
	}
	st, err := machine.NewState(res.Config, res.InitialPlacement)
	if err != nil {
		return err
	}
	nTraps := res.Config.Topology.NumTraps()
	clock := make([]float64, nTraps)

	type box struct {
		trap       int
		start, end float64
		kind       machine.OpKind
		label      string
	}
	var boxes []box
	p := opt.Params
	add := func(trap int, dur float64, kind machine.OpKind, label string) {
		boxes = append(boxes, box{trap: trap, start: clock[trap], end: clock[trap] + dur, kind: kind, label: label})
		clock[trap] += dur
	}
	for _, op := range res.Ops {
		ion, trap, trap2 := int(op.Ion), int(op.Trap), int(op.Trap2)
		switch op.Kind {
		case machine.OpGate1Q:
			add(st.IonTrap(ion), p.Gate1Q, op.Kind, op.Name.String())
		case machine.OpMeasure:
			add(st.IonTrap(ion), p.Measure, op.Kind, "M")
		case machine.OpGate2Q:
			t := st.IonTrap(ion)
			add(t, p.Gate2Q(st.Occupancy(t)), op.Kind, op.Name.String())
		case machine.OpSwap:
			add(st.IonTrap(ion), p.Swap, op.Kind, "swap")
		case machine.OpSplit:
			add(st.IonTrap(ion), p.Split, op.Kind, "split")
		case machine.OpMove:
			// Synchronize the two trap clocks, then draw the move on both.
			m := clock[trap]
			if clock[trap2] > m {
				m = clock[trap2]
			}
			clock[trap], clock[trap2] = m, m
			add(trap, p.Move, op.Kind, "")
			clock[trap2] = m // add advanced only Trap
			add(trap2, p.Move, op.Kind, fmt.Sprintf("i%d", ion))
		case machine.OpMerge:
			if err := st.Teleport(ion, trap); err != nil {
				return err
			}
			add(trap, p.Merge, op.Kind, "merge")
		}
	}
	makespan := 0.0
	for _, c := range clock {
		if c > makespan {
			makespan = c
		}
	}
	if makespan == 0 {
		makespan = 1
	}

	const leftMargin, topMargin = 60, 30
	height := topMargin + nTraps*opt.RowHeight + 40
	xScale := float64(opt.Width-leftMargin-20) / makespan

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`+"\n", opt.Width, height)
	fmt.Fprintf(&b, `<text x="%d" y="16">schedule %s: %d shuttles, makespan %.0f us (%s / %s)</text>`+"\n",
		leftMargin, escape(res.Circ.Name), res.Shuttles, makespan, escape(res.DirectionPolicy), escape(res.RebalancePolicy))
	for t := 0; t < nTraps; t++ {
		y := topMargin + t*opt.RowHeight
		fmt.Fprintf(&b, `<text x="8" y="%d">T%d</text>`+"\n", y+opt.RowHeight/2+4, t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>`+"\n",
			leftMargin, y+opt.RowHeight, opt.Width-20, y+opt.RowHeight)
	}
	for _, bx := range boxes {
		x := leftMargin + int(bx.start*xScale)
		wpx := int((bx.end - bx.start) * xScale)
		if wpx < 1 {
			wpx = 1
		}
		y := topMargin + bx.trap*opt.RowHeight + 3
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" opacity="0.85">`+"\n",
			x, y, wpx, opt.RowHeight-6, colorFor(bx.kind))
		fmt.Fprintf(&b, `<title>%s T%d [%.0f..%.0f us]</title></rect>`+"\n",
			escape(bx.label), bx.trap, bx.start, bx.end)
	}
	// Time axis.
	fmt.Fprintf(&b, `<text x="%d" y="%d">0</text>`, leftMargin, height-12)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%.0f us</text>`+"\n", opt.Width-20, height-12, makespan)
	b.WriteString("</svg>\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// colorFor maps op kinds to fill colors: gates blue-ish, shuttle primitives
// warm (the expensive operations the compiler minimizes).
func colorFor(k machine.OpKind) string {
	switch k {
	case machine.OpGate2Q:
		return "#2b6cb0"
	case machine.OpGate1Q:
		return "#90cdf4"
	case machine.OpMeasure:
		return "#553c9a"
	case machine.OpSwap:
		return "#f6e05e"
	case machine.OpSplit:
		return "#ed8936"
	case machine.OpMerge:
		return "#dd6b20"
	case machine.OpMove:
		return "#e53e3e"
	default:
		return "#a0aec0"
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
