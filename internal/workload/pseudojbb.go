package workload

import "beltway/internal/gc"

// PseudoJBB models pseudojbb, the paper's fixed-work variant of SPEC
// JBB2000: a 3-tier transaction system over warehouses that executes a
// fixed number of transactions (rather than a fixed time), so running
// times are comparable. Paper Table 1: 70MB min heap, 381MB allocated —
// the largest live set in the suite, which is why Appel "performs very
// poorly in large heaps for pseudojbb because the program thrashes when
// its nursery becomes too large and spreads out live data too much"
// (Figure 10(f)); the harness enables the paging model for this analog.
//
// Structure: warehouses own districts own stock entries (all long
// lived); each transaction allocates order/order-line objects that are
// linked into a district's open-order ring and retired many transactions
// later (medium lifetimes), plus per-transaction temporaries.
func PseudoJBB() *Benchmark {
	return &Benchmark{
		Name:           "pseudojbb",
		PaperMinHeapMB: 70,
		PaperAllocMB:   381,
		Body:           pseudojbbBody,
	}
}

func pseudojbbBody(c *Ctx) {
	m := c.M
	warehouse := c.Types.DefineScalar("jbb.warehouse", 2, 4) // district table, next
	district := c.Types.DefineScalar("jbb.district", 3, 4)   // stock table, order ring, wh
	stockArr := c.Types.DefineRefArray("jbb.stocktab")
	stock := c.Types.DefineScalar("jbb.stock", 0, 8)
	order := c.Types.DefineScalar("jbb.order", 3, 4)     // first line, next order, district
	orderLine := c.Types.DefineScalar("jbb.oline", 2, 4) // stock ref, next line
	txn := c.Types.DefineScalar("jbb.txn", 3, 4)         // short-lived transaction record
	result := c.Types.DefineWordArray("jbb.result")

	bootImage(c, 64)

	// Tier setup: warehouses, districts, stock. All long-lived; this is
	// most of pseudojbb's 70MB live set (scaled).
	nWh := 4
	nDist := 10
	nStockPerDist := c.N(1200)
	retireAfter := 60 // a district keeps its last 60 orders open
	type distT struct {
		h          gc.Handle
		stockTab   *table
		openOrders window // retirable orders, oldest first
	}
	var dists []*distT
	var prevWh gc.Handle
	for w := 0; w < nWh; w++ {
		wh := c.AllocLongLived(warehouse, 0)
		if prevWh != gc.NilHandle {
			m.SetRef(wh, 1, prevWh)
		}
		prevWh = wh
		for d := 0; d < nDist; d++ {
			dh := c.AllocLongLived(district, 0)
			m.SetRef(dh, 2, wh)
			st := newTable(c, stockArr, nStockPerDist)
			for s := 0; s < nStockPerDist; s++ {
				m.Push()
				var sk gc.Handle
				if c.Pretenure {
					sk = c.M.AllocPretenured(stock, 0)
				} else {
					sk = m.Alloc(stock, 0)
				}
				m.SetData(sk, 0, uint32(s))
				st.Set(m, s, sk)
				m.Pop()
			}
			dists = append(dists, &distT{h: dh, stockTab: st, openOrders: newWindow(retireAfter)})
		}
	}

	// Fixed transaction count (the "pseudo" in pseudojbb).
	transactions := c.N(45000)
	for t := 0; t < transactions; t++ {
		d := dists[c.Rng.Intn(len(dists))]
		m.Push()

		// Transaction record and temporaries: die with the scope.
		tx := m.Alloc(txn, 0)
		m.SetData(tx, 0, uint32(t))
		m.SetRef(tx, 0, d.h)
		res := m.Alloc(result, 8+c.Rng.Intn(24))
		m.SetData(res, 0, uint32(t))

		// New order: medium-lived, linked into the district ring.
		o := m.AllocGlobal(order, 0)
		m.SetRef(o, 2, d.h)
		var prevLine gc.Handle
		nLines := 3 + c.Rng.Intn(6)
		for l := 0; l < nLines; l++ {
			ol := m.Alloc(orderLine, 0)
			si := c.Rng.Intn(nStockPerDist)
			sk := d.stockTab.Get(m, si)
			m.SetRef(ol, 0, sk)
			m.SetData(ol, 0, uint32(l))
			if prevLine != gc.NilHandle {
				m.SetRef(ol, 1, prevLine)
			}
			prevLine = ol
			// Stock update: mutate the long-lived stock entry.
			m.SetData(sk, 1, uint32(t))
			m.Release(sk)
			m.Work(3)
		}
		m.SetRef(o, 0, prevLine)
		// Open the order; once the district has retireAfter open, its
		// oldest retires (delivery transaction).
		d.openOrders.push(m, o)
		m.Pop()
		m.Work(8)
	}
}
