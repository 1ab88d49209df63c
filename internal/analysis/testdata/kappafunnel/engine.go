// Fixture for the kappa-funnel rule: a miniature Engine with the guarded
// fields and both legal (funnel/construction) and illegal write sites.
package dynamic

type Engine struct {
	kappa []int32
	hist  []int
	maxK  int32
	dirty bool
}

func NewEngine(n int) *Engine {
	en := &Engine{}
	en.kappa = make([]int32, n) // ok: construction site
	en.hist = make([]int, 1)    // ok: construction site
	return en
}

func (en *Engine) ensureEdgeCap(n int) {
	for len(en.kappa) < n {
		en.kappa = append(en.kappa, 0) // ok: capacity growth site
	}
}

func (en *Engine) moveEdge(from, to int32) {
	en.kappa[to], en.kappa[from] = en.kappa[from], -1 // ok: a slot move changes no κ value
}

func (en *Engine) transition(eid, old, new int32) {
	if old >= 0 {
		en.hist[old]-- // ok: the funnel itself
	}
	if new >= 0 {
		en.hist[new]++ // ok: the funnel itself
	}
	if new > en.maxK {
		en.maxK = new // ok: the funnel itself
	}
}

func (en *Engine) setKappa(eid, old, new int32) {
	en.kappa[eid] = new // ok: paired with its transition below
	en.transition(eid, old, new)
}

func (en *Engine) promoteDirectly(eid int32) {
	en.kappa[eid]++ // want "write to Engine.kappa outside the κ funnel"
	en.dirty = true // ok: not a guarded field
}

func (en *Engine) rebuildHistogram() {
	en.hist = make([]int, 4) // want "write to Engine.hist outside the κ funnel"
	for i := range en.kappa {
		en.hist[en.kappa[i]]++ // want "write to Engine.hist outside the κ funnel"
	}
	en.maxK = 3 // want "write to Engine.maxK outside the κ funnel"
}

func (en *Engine) readOnly(eid int32) int32 {
	k := en.kappa[eid] // ok: reads are unrestricted
	return k + en.maxK
}

// applyCtx mirrors the worker staging overlay: sKappa/sMark are guarded,
// writable only in the staging funnel, sizing and the wrap reset.
type applyCtx struct {
	sKappa []int32
	sMark  []uint32
	gen    uint32
	writes []int32
}

func (c *applyCtx) stageKappa(e, v int32) {
	if c.sMark[e] != c.gen {
		c.sMark[e] = c.gen // ok: the staging funnel itself
		c.writes = append(c.writes, e)
	}
	c.sKappa[e] = v // ok: the staging funnel itself
}

func (c *applyCtx) growEdges(n int) {
	for len(c.sKappa) < n {
		c.sKappa = append(c.sKappa, 0) // ok: capacity growth site
		c.sMark = append(c.sMark, 0)   // ok: capacity growth site
	}
}

func (c *applyCtx) execRegion() {
	c.gen++
	if c.gen == 0 {
		for i := range c.sMark {
			c.sMark[i] = 0 // ok: generation-wrap wipe
		}
		c.gen = 1
	}
}

func (c *applyCtx) stageDirectly(e int32) {
	c.sKappa[e] = 7    // want "write to applyCtx.sKappa outside the staging funnel"
	c.sMark[e] = c.gen // want "write to applyCtx.sMark outside the staging funnel"
}

func (c *applyCtx) readStaged(e int32) int32 {
	if c.sMark[e] == c.gen { // ok: reads are unrestricted
		return c.sKappa[e]
	}
	return -1
}
