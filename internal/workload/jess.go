package workload

import "beltway/internal/gc"

// Jess models 202_jess, an expert-system shell: a stable rule network is
// consulted by a torrent of short-lived facts and match tokens. The
// paper reports a 12MB min heap against 301MB allocated — a 25:1 ratio,
// the most nursery-friendly benchmark in the suite — so the analog keeps
// a small working memory (the live set) while allocating token chains
// that die within one activation.
func Jess() *Benchmark {
	return &Benchmark{
		Name:           "jess",
		PaperMinHeapMB: 12,
		PaperAllocMB:   301,
		Body:           jessBody,
	}
}

func jessBody(c *Ctx) {
	m := c.M
	rule := c.Types.DefineScalar("jess.rule", 3, 4)
	fact := c.Types.DefineScalar("jess.fact", 2, 6)
	token := c.Types.DefineScalar("jess.token", 2, 2)
	binding := c.Types.DefineScalar("jess.binding", 1, 3)

	bootImage(c, 24)

	// Rule network: long-lived, built once (like jess's Rete network).
	nRules := c.N(160)
	rules := c.handles(nRules)
	for i := range rules {
		rules[i] = m.Alloc(rule, 0)
		m.SetData(rules[i], 0, uint32(i))
		if i > 0 {
			m.SetRef(rules[i], 0, rules[i-1])
		}
		if i > 10 {
			m.SetRef(rules[i], 1, rules[c.Rng.Intn(i)])
		}
	}

	// Working memory: a bounded FIFO of facts with medium lifetimes.
	wmSize := c.N(7000)
	wm := c.handles(wmSize)
	next := 0

	activations := c.N(55000)
	for act := 0; act < activations; act++ {
		// Assert a fact, displacing the oldest working-memory entry.
		f := m.AllocGlobal(fact, 0)
		m.SetData(f, 0, uint32(act))
		r := rules[c.Rng.Intn(nRules)]
		m.SetRef(f, 0, r)
		if prev := wm[next]; prev != gc.NilHandle {
			m.Release(prev) // retract the displaced fact
		}
		wm[next] = f
		next = (next + 1) % wmSize

		// Matching: a chain of tokens and bindings, all dead by Pop.
		m.Push()
		depth := 3 + c.Rng.Intn(6)
		prev := f
		for d := 0; d < depth; d++ {
			tk := m.Alloc(token, 0)
			m.SetRef(tk, 0, prev)
			m.SetRef(tk, 1, r)
			b := m.Alloc(binding, 0)
			m.SetRef(b, 0, tk)
			m.SetData(b, 0, uint32(d))
			prev = tk
		}
		m.Work(depth * 4)
		m.Pop()
	}
}
