package dataset

import (
	"math"
	"math/rand"
)

// glyphOp is one stroke of a digit glyph, in unit coordinates
// (x right, y down, both in [0,1]).
type glyphOp struct {
	arc bool
	// polyline points when arc is false.
	pts [][2]float64
	// cx, cy, rx, ry, a0, a1 when arc is true.
	cx, cy, rx, ry, a0, a1 float64
}

// digitGlyphs defines stroke skeletons for the digits 0–9. The shapes
// only need to be mutually distinguishable and human-recognizable; the
// classifier learns whatever the renderer draws.
var digitGlyphs = [10][]glyphOp{
	0: {
		{arc: true, cx: 0.5, cy: 0.5, rx: 0.28, ry: 0.40, a0: 0, a1: 2 * math.Pi},
	},
	1: {
		{pts: [][2]float64{{0.35, 0.26}, {0.55, 0.10}, {0.55, 0.90}}},
		{pts: [][2]float64{{0.35, 0.90}, {0.74, 0.90}}},
	},
	2: {
		{arc: true, cx: 0.5, cy: 0.30, rx: 0.27, ry: 0.20, a0: math.Pi, a1: 2 * math.Pi},
		{pts: [][2]float64{{0.77, 0.30}, {0.23, 0.90}, {0.80, 0.90}}},
	},
	3: {
		{arc: true, cx: 0.48, cy: 0.30, rx: 0.25, ry: 0.20, a0: math.Pi, a1: 2.4 * math.Pi},
		{arc: true, cx: 0.48, cy: 0.70, rx: 0.27, ry: 0.22, a0: -0.4 * math.Pi, a1: math.Pi},
	},
	4: {
		{pts: [][2]float64{{0.64, 0.10}, {0.20, 0.62}, {0.82, 0.62}}},
		{pts: [][2]float64{{0.64, 0.34}, {0.64, 0.92}}},
	},
	5: {
		{pts: [][2]float64{{0.76, 0.10}, {0.30, 0.10}, {0.27, 0.48}}},
		{arc: true, cx: 0.47, cy: 0.67, rx: 0.28, ry: 0.24, a0: -math.Pi/2 - 0.8, a1: 0.8 * math.Pi},
	},
	6: {
		{pts: [][2]float64{{0.68, 0.10}, {0.36, 0.52}}},
		{arc: true, cx: 0.50, cy: 0.64, rx: 0.25, ry: 0.26, a0: 0, a1: 2 * math.Pi},
	},
	7: {
		{pts: [][2]float64{{0.22, 0.10}, {0.78, 0.10}, {0.40, 0.92}}},
	},
	8: {
		{arc: true, cx: 0.50, cy: 0.30, rx: 0.21, ry: 0.20, a0: 0, a1: 2 * math.Pi},
		{arc: true, cx: 0.50, cy: 0.72, rx: 0.25, ry: 0.21, a0: 0, a1: 2 * math.Pi},
	},
	9: {
		{arc: true, cx: 0.50, cy: 0.34, rx: 0.23, ry: 0.23, a0: 0, a1: 2 * math.Pi},
		{pts: [][2]float64{{0.73, 0.36}, {0.64, 0.90}}},
	},
}

// glyphStyle controls the randomized rendering of one glyph instance.
type glyphStyle struct {
	// cx, cy place the glyph center in canvas pixels.
	cx, cy float64
	// scale maps unit glyph size to pixels.
	scale float64
	// rot rotates the glyph (radians).
	rot float64
	// thickness is the stroke width in pixels.
	thickness float64
	// color is the stroke color (1 or C entries).
	color []float64
}

// randomGlyphStyle draws a natural style for a digit roughly centered
// on a size×size canvas.
func randomGlyphStyle(rng *rand.Rand, size int, color []float64) glyphStyle {
	s := float64(size)
	return glyphStyle{
		cx:        float64(s/2) + float64((float64(rng.Float64())-0.5)*0.10*s),
		cy:        float64(s/2) + float64((float64(rng.Float64())-0.5)*0.10*s),
		scale:     s * (0.80 + float64(0.18*rng.Float64())),
		rot:       (float64(rng.Float64()) - 0.5) * 0.24,
		thickness: s * (0.055 + float64(0.03*rng.Float64())),
		color:     color,
	}
}

// place maps a unit-square glyph point through the style transform.
func (st glyphStyle) place(p [2]float64) (x, y float64) {
	dx, dy := p[0]-0.5, p[1]-0.5
	c, s := math.Cos(st.rot), math.Sin(st.rot)
	return st.cx + float64(st.scale*(float64(c*dx)-float64(s*dy))), st.cy + float64(st.scale*(float64(s*dx)+float64(c*dy)))
}

// DrawDigit renders digit d (0–9) onto the canvas with the given style
// randomness. It panics if d is out of range, which is a programmer
// error.
func DrawDigit(cv *Canvas, d int, rng *rand.Rand, size int, color []float64) {
	st := randomGlyphStyle(rng, size, color)
	drawGlyphStyled(cv, d, st)
}

func drawGlyphStyled(cv *Canvas, d int, st glyphStyle) {
	if d < 0 || d > 9 {
		panic("dataset: digit out of range")
	}
	for _, op := range digitGlyphs[d] {
		if op.arc {
			// Sample the arc in unit space and map each point, so the
			// style rotation applies to arcs too.
			steps := int(math.Abs(op.a1-op.a0)*st.scale*math.Max(op.rx, op.ry)) + 8
			prev := [2]float64{}
			for i := 0; i <= steps; i++ {
				a := op.a0 + (op.a1-op.a0)*float64(i)/float64(steps)
				p := [2]float64{op.cx + float64(op.rx*math.Cos(a)), op.cy + float64(op.ry*math.Sin(a))}
				x, y := st.place(p)
				if i > 0 {
					cv.Line(prev[0], prev[1], x, y, st.thickness, st.color)
				}
				prev = [2]float64{x, y}
			}
			continue
		}
		pts := make([][2]float64, len(op.pts))
		for i, p := range op.pts {
			x, y := st.place(p)
			pts[i] = [2]float64{x, y}
		}
		cv.Polyline(pts, st.thickness, st.color)
	}
}
