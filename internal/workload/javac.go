package workload

import "beltway/internal/gc"

// Javac models 213_javac compiling a program repeatedly: each
// compilation unit builds an AST and a symbol table laced with CYCLIC
// references (scopes point at symbols, symbols back at their scope, and
// symbols cross-reference each other), and whole units die at once when
// compilation finishes. Paper Table 1: 32MB min heap, 266MB allocated.
//
// The cycles are the point: a unit's cyclic structure sprawls across
// whatever increments were current while it was built, so incomplete
// collectors cannot reclaim it — the paper observes that "213_javac
// performance actually degrades because Beltway 25.25 never reclaims a
// large cyclic garbage structure" (§4.2.4). This analog is the repo's
// completeness stress test.
func Javac() *Benchmark {
	return &Benchmark{
		Name:           "javac",
		PaperMinHeapMB: 32,
		PaperAllocMB:   266,
		Body:           javacBody,
	}
}

func javacBody(c *Ctx) {
	m := c.M
	astNode := c.Types.DefineScalar("javac.ast", 3, 3) // children x2, symbol
	symbol := c.Types.DefineScalar("javac.sym", 3, 4)  // scope, peer, def site
	scope := c.Types.DefineScalar("javac.scope", 3, 2) // parent, symbol list, owner sym
	token := c.Types.DefineScalar("javac.token", 1, 2) // short-lived lexer output
	code := c.Types.DefineWordArray("javac.code")      // emitted bytecode

	bootImage(c, 48)

	// Classpath symbol table: long-lived symbols for imported classes,
	// loaded once (javac's live set is the largest of the JVM98 suite:
	// 32MB min heap in Table 1).
	nGlobal := c.N(9000)
	globals := c.handles(nGlobal)
	for i := range globals {
		sym := c.AllocLongLived(symbol, 0)
		m.SetData(sym, 0, uint32(i))
		if i > 0 {
			m.SetRef(sym, 1, globals[i-1])
		}
		globals[i] = sym
	}

	units := c.N(220)
	// Compiled output: like javac's per-run reset, only a window of
	// recent units' code stays live.
	emitted := newWindow(c, c.N(40))
	// A unit has scopesMin + Intn(scopesSpan) scopes, each with
	// symsMin + Intn(symsSpan) symbols, and nodesMin + Intn(nodesSpan) AST
	// nodes. Its scopes, symbols and AST: one buffer each for every unit,
	// as large as a unit's can be.
	const (
		scopesMin, scopesSpan = 12, 8
		symsMin, symsSpan     = 4, 10
		nodesMin, nodesSpan   = 900, 600
		maxScopes             = scopesMin + scopesSpan - 1
	)
	scopes := c.handles(maxScopes)[:0]
	syms := c.handles(maxScopes * (symsMin + symsSpan - 1))[:0]
	nodes := c.handles(nodesMin + nodesSpan - 1)[:0]

	for u := 0; u < units; u++ {
		// A compilation unit: all of its structure becomes garbage at
		// once when the unit handle set is dropped.
		m.Push()

		// Lexing: short-lived tokens.
		nTok := 400 + c.Rng.Intn(400)
		for i := 0; i < nTok; i++ {
			m.Push()
			tk := m.Alloc(token, 0)
			m.SetData(tk, 0, uint32(i))
			m.Pop()
		}

		// Scopes and symbols: cyclic. Each scope points at its parent
		// and at its symbol chain; each symbol points BACK at its scope
		// (the cycle), at a peer symbol, and at its defining AST node.
		nScopes := scopesMin + c.Rng.Intn(scopesSpan)
		scopes, syms = scopes[:0], syms[:0]
		for s := 0; s < nScopes; s++ {
			sc := m.Alloc(scope, 0)
			scopes = append(scopes, sc)
			if s > 0 {
				m.SetRef(sc, 0, scopes[c.Rng.Intn(s)]) // parent
			}
			nSyms := symsMin + c.Rng.Intn(symsSpan)
			var prev gc.Handle
			for k := 0; k < nSyms; k++ {
				sym := m.Alloc(symbol, 0)
				m.SetRef(sym, 0, sc) // symbol -> scope (closes the cycle)
				if prev != gc.NilHandle {
					m.SetRef(sym, 1, prev)
				}
				prev = sym
				syms = append(syms, sym)
			}
			m.SetRef(sc, 1, prev) // scope -> symbol chain head
		}
		// Cross-scope symbol references (cycles spanning scopes, and —
		// because allocation interleaves with nursery collections —
		// spanning increments).
		for i := 0; i < len(syms); i++ {
			j := c.Rng.Intn(len(syms))
			m.SetRef(syms[i], 2, syms[j])
		}

		// Parsing: an AST whose leaves reference symbols.
		nNodes := nodesMin + c.Rng.Intn(nodesSpan)
		nodes = nodes[:0]
		for i := 0; i < nNodes; i++ {
			nd := m.Alloc(astNode, 0)
			if len(nodes) > 1 {
				m.SetRef(nd, 0, nodes[c.Rng.Intn(len(nodes))])
				m.SetRef(nd, 1, nodes[c.Rng.Intn(len(nodes))])
			}
			if c.Rng.Intn(4) == 0 {
				m.SetRef(nd, 2, globals[c.Rng.Intn(nGlobal)]) // imported class
			} else {
				m.SetRef(nd, 2, syms[c.Rng.Intn(len(syms))])
			}
			nodes = append(nodes, nd)
			m.Work(2)
		}

		// Code generation: the only output that survives the unit.
		m.Pop()
		out := m.AllocGlobal(code, 64+c.Rng.Intn(192))
		m.SetData(out, 0, uint32(u))
		emitted.push(m, out)
	}
}
