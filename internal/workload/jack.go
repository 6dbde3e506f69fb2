package workload

import "beltway/internal/gc"

// Jack models 228_jack, which "generates a parser repeatedly": the same
// parser-generator job runs 16 times, each run moving through phases
// (read grammar, compute NFA states, emit parser) whose data structures
// live until the phase or run ends, then die in bulk. Paper Table 1:
// 20MB min heap, 320MB allocated. The phase structure creates waves of
// medium-lived objects — the demographic that rewards giving objects
// time to die (older-first behaviour) over eager nursery collection.
func Jack() *Benchmark {
	return &Benchmark{
		Name:           "jack",
		PaperMinHeapMB: 20,
		PaperAllocMB:   320,
		Body:           jackBody,
	}
}

func jackBody(c *Ctx) {
	m := c.M
	production := c.Types.DefineScalar("jack.prod", 3, 2) // rhs list, next, action
	rhsItem := c.Types.DefineScalar("jack.rhs", 2, 1)
	state := c.Types.DefineScalar("jack.state", 3, 4) // item set, goto chain, prod
	edge := c.Types.DefineScalar("jack.edge", 2, 1)   // target state, next edge
	tok := c.Types.DefineScalar("jack.tok", 1, 2)     // short-lived scanner output
	outBuf := c.Types.DefineWordArray("jack.out")

	bootImage(c, 24)

	// Every run reads a grammar of nProd productions and builds nStates
	// states; one buffer each holds them for all 16 runs.
	nProd, nStates := c.N(700), c.N(2400)
	prods, states := c.handles(nProd), c.handles(nStates)
	runs := 16 // the paper: jack "generates a parser repeatedly" (16 runs)
	for run := 0; run < runs; run++ {
		m.Push() // run scope: everything below dies when the run ends

		// Phase 1: read the grammar — productions with RHS chains.
		for p := 0; p < nProd; p++ {
			pr := m.Alloc(production, 0)
			var prev gc.Handle
			for r := 0; r < 2+c.Rng.Intn(5); r++ {
				it := m.Alloc(rhsItem, 0)
				m.SetData(it, 0, uint32(r))
				if prev != gc.NilHandle {
					m.SetRef(it, 1, prev)
				}
				prev = it
			}
			m.SetRef(pr, 0, prev)
			if p > 0 {
				m.SetRef(pr, 1, prods[p-1])
			}
			prods[p] = pr
		}

		// Phase 2: state construction — states with edge chains, plus a
		// flood of short-lived scanner tokens while checking examples.
		for s := 0; s < nStates; s++ {
			st := m.Alloc(state, 0)
			m.SetRef(st, 2, prods[c.Rng.Intn(nProd)])
			var prev gc.Handle
			for e := 0; e < 1+c.Rng.Intn(4); e++ {
				ed := m.Alloc(edge, 0)
				if s > 0 {
					m.SetRef(ed, 0, states[c.Rng.Intn(s)])
				}
				if prev != gc.NilHandle {
					m.SetRef(ed, 1, prev)
				}
				prev = ed
			}
			m.SetRef(st, 1, prev)
			states[s] = st

			// Scanner tokens: die immediately.
			m.Push()
			for t := 0; t < 12; t++ {
				tk := m.Alloc(tok, 0)
				m.SetData(tk, 0, uint32(t))
			}
			m.Pop()
			m.Work(6)
		}

		// Phase 3: emit — short-lived buffers, a few survive the run.
		m.Push()
		for e := 0; e < c.N(300); e++ {
			b := m.Alloc(outBuf, 16+c.Rng.Intn(48))
			m.SetData(b, 0, uint32(e))
		}
		m.Pop()

		m.Pop() // end of run: grammar, states, edges all die together
	}
}
