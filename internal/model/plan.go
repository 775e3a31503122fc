package model

import "fmt"

// pathState is a state of a minimal-path dynamic program: the class
// of the nodes still to be crossed on the way to a destination, up to
// the topology's symmetry (a star graph's cycle type, a torus's
// sorted offset vector). The profitable-move structure depends only
// on the state, which is what lets one plan stand for every minimal
// path of a class.
type pathState[S any] interface {
	// key identifies the state: equal keys are equal states.
	key() string
	// dist is the distance left to the destination, 0 only there.
	dist() int
	// fanout is the number of profitable output channels.
	fanout() int
	// transitions lists the profitable moves in a fixed order.
	transitions() []transition[S]
}

// transition is one class of profitable moves out of a state: mult
// distinct output channels each leading to state to.
type transition[S any] struct {
	to   S
	mult int
}

// pathPlan is the compiled dynamic program shared by the star-graph
// and torus path structures: per destination class, a flat post-order
// list of the states reachable from the class root, so BlockSum is a
// single allocation-free loop. A pathPlan is read-only once compiled
// and safe for concurrent use.
type pathPlan struct {
	classes []PathClass
	// numPaths is the number of minimal paths per class.
	numPaths []float64
	// plans[idx] spans the steps of class idx's plan; the last step is
	// the class's own state.
	plans []span
	steps []planStep
	kids  []planKid
}

// span is a half-open index range into pathPlan.steps or .kids.
type span struct{ lo, hi int32 }

// planStep is one state reachable from a class root: the hop it is
// at for either source colour and its weighted successor states.
type planStep struct {
	hop  [2]Hop // indexed by the source colour c0
	kids span
}

// planKid is one transition out of a step: the successor's value slot
// (slot 0 is the destination, whose remaining sum is 0; slot i+1
// holds step i of the plan) and its share mult·paths(to)/paths(from)
// of the step's minimal paths.
type planKid struct {
	slot int32
	w    float64
}

// maxPlanSteps bounds a plan's length, so BlockSum's value array fits
// on the stack: S_12 has 195 cycle types (with position 1's cycle
// marked), identity included, and NewTorusPaths admits at most this
// many destination classes.
const maxPlanSteps = 255

// compilePlan compiles one plan per class root; pops[i] is the
// population of roots[i]'s class. Each plan is a post-order walk of
// the states reachable from its root, each visited once, so every
// step's successors precede it. For a fixed class the hop index k is
// recoverable from a state's distance (k = h0 − d + 1), which is why
// one step per state suffices.
func compilePlan[S pathState[S]](roots []S, pops []uint64) pathPlan {
	var p pathPlan
	for c, root := range roots {
		h0 := root.dist()
		lo := int32(len(p.steps))
		slots := make(map[string]int32)
		paths := []float64{1} // minimal paths to the destination, per slot
		var visit func(s S) int32
		visit = func(s S) int32 {
			d := s.dist()
			if d == 0 {
				return 0
			}
			key := s.key()
			if slot, ok := slots[key]; ok {
				return slot
			}
			trs := s.transitions()
			kids := make([]planKid, len(trs))
			var total float64
			for i, tr := range trs {
				kids[i].slot = visit(tr.to)
				total += float64(tr.mult) * paths[kids[i].slot]
			}
			for i, tr := range trs {
				kids[i].w = float64(tr.mult) * paths[kids[i].slot] / total
			}
			k := h0 - d + 1
			st := planStep{kids: span{int32(len(p.kids)), int32(len(p.kids) + len(kids))}}
			for c0 := 0; c0 <= 1; c0++ {
				st.hop[c0] = Hop{F: s.fanout(), D: d, NegTaken: negsAfter(c0, k-1), HopNeg: hopNegAt(c0, k)}
			}
			p.kids = append(p.kids, kids...)
			p.steps = append(p.steps, st)
			paths = append(paths, total)
			slot := int32(len(p.steps)) - lo // step i sits in slot i+1
			slots[key] = slot
			return slot
		}
		visit(root)
		if steps := len(p.steps) - int(lo); steps > maxPlanSteps {
			panic(fmt.Sprintf("model: plan of class %s has %d steps, more than %d", root.key(), steps, maxPlanSteps))
		}
		p.plans = append(p.plans, span{lo, int32(len(p.steps))})
		p.classes = append(p.classes, PathClass{H: h0, Count: pops[c], Label: root.key()})
		p.numPaths = append(p.numPaths, paths[len(paths)-1])
	}
	return p
}

// Classes implements PathStructure.
func (p *pathPlan) Classes() []PathClass { return p.classes }

// BlockSum implements PathStructure by running class idx's compiled
// plan: each step's value is its own hop's blocking probability plus
// the path-weighted values of its successors, added in transition
// order. TestEvaluateBitIdentityPin and TestTorusBitIdentityPin pin
// that order of float operations.
func (p *pathPlan) BlockSum(idx, c0 int, eval HopEvaluator) float64 {
	var vals [maxPlanSteps + 1]float64 // vals[0] is the destination's 0
	pl := p.plans[idx]
	steps := p.steps[pl.lo:pl.hi]
	for i := range steps {
		st := &steps[i]
		sum := eval(st.hop[c0])
		for _, k := range p.kids[st.kids.lo:st.kids.hi] {
			sum += k.w * vals[k.slot]
		}
		vals[i+1] = sum
	}
	return vals[len(steps)]
}

// NumPaths exposes the minimal-path count of a class (used by tests
// and by cmd/starinfo).
func (p *pathPlan) NumPaths(idx int) float64 { return p.numPaths[idx] }
