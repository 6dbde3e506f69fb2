// Extensions: the two beyond-the-paper features working together on one
// collector — a Mature Object Space top belt (completeness without
// full-heap collections) and allocation-site pretenuring (long-lived data
// skips the nursery). The program is a small document store: a
// pretenured index, document bodies that survive into the mature space,
// and short-lived query temporaries.
//
// No object spans frames, as in the paper's GCTk, so a document is a
// table of chunks, each small enough to fit a frame — the way the bundled
// workloads chunk their big arrays.
//
// Run with: go run ./examples/extensions
package main

import (
	"fmt"
	"log"

	"beltway"
)

const (
	docs       = 120
	chunkWords = 250 // 1 KB of payload a chunk: eight fit an 8 KB frame
)

func main() {
	types := beltway.NewTypes()
	// Cars of a tenth of the heap: the surviving documents fill several.
	cfg := beltway.XXMOS(10, beltway.Options{
		HeapBytes:  2 << 20,
		FrameBytes: 8 << 10,
	})
	col, err := beltway.New(cfg, types)
	if err != nil {
		log.Fatal(err)
	}
	m := beltway.NewMutator(col)

	indexNode := types.DefineScalar("index", 2, 2) // doc ref, next, key words
	document := types.DefineRefArray("document")   // the document's chunks
	chunk := types.DefineWordArray("chunk")        // 1 KB of payload
	query := types.DefineScalar("query", 1, 3)     // short-lived

	err = m.Run(func() {
		// The index is long-lived by construction: pretenure it.
		var head beltway.Handle
		for d := 0; d < docs; d++ {
			n := m.AllocPretenuredGlobal(indexNode, 0)
			m.SetData(n, 0, uint32(d))
			if head != beltway.NilHandle {
				m.SetRef(n, 1, head)
				m.Release(head)
			}
			head = n

			// Document body: 6-14 KB in 1 KB chunks. It is born in the
			// nursery and promoted, car by car, into the mature space.
			doc := m.Alloc(document, 6+d%9)
			for c := 0; c < m.Length(doc); c++ {
				ch := m.Alloc(chunk, chunkWords)
				m.SetData(ch, 0, uint32(d)*7+uint32(c))
				m.SetRef(doc, c, ch)
				m.Release(ch)
			}
			m.SetRef(n, 0, doc)
			m.Release(doc)

			// Query churn: thousands of short-lived temporaries.
			m.Push()
			for q := 0; q < 400; q++ {
				qq := m.Alloc(query, 0)
				m.SetRef(qq, 0, n)
				m.SetData(qq, 0, uint32(q))
			}
			m.Pop()
		}

		// Drop the older half of the index (and so half the documents),
		// then force a full cycle to reclaim them.
		cur := m.Keep(head)
		for d := 0; d < docs/2; d++ {
			next := m.GetRef(cur, 1)
			m.Release(cur)
			cur = m.Keep(next)
			m.Release(next)
		}
		m.SetRefNil(cur, 1) // cut the chain: older half is garbage
		m.Release(cur)
		m.Collect(true)

		// Verify the surviving half, chunk by chunk.
		count := 0
		cur = m.Keep(head)
		for {
			doc := m.GetRef(cur, 0)
			key := m.GetData(cur, 0)
			for c := 0; c < m.Length(doc); c++ {
				ch := m.GetRef(doc, c)
				if got, want := m.GetData(ch, 0), key*7+uint32(c); got != want {
					log.Fatalf("document %d chunk %d corrupted: %d != %d", key, c, got, want)
				}
				m.Release(ch)
			}
			m.Release(doc)
			count++
			if m.RefIsNil(cur, 1) {
				break
			}
			next := m.GetRef(cur, 1)
			m.Release(cur)
			cur = m.Keep(next)
			m.Release(next)
		}
		fmt.Printf("index intact: %d documents survive\n", count)
	})
	if err != nil {
		log.Fatal(err)
	}

	c := col.Clock().Counters
	fmt.Printf("collections:       %d (%d full)\n", col.Collections(), c.FullCollections)
	fmt.Printf("pretenured:        %.1f KB (skipped the nursery)\n", float64(c.PretenuredBytes)/1024)
	fmt.Printf("copied:            %.1f KB (the index never moved through the nursery)\n",
		float64(c.BytesCopied)/1024)
	mos := col.Belts()[len(col.Belts())-1]
	trains := map[int]bool{}
	for _, in := range mos.Increments() {
		trains[in.Train()] = true
	}
	fmt.Printf("mature space:      %d cars across %d trains, %.1f KB\n",
		mos.Len(), len(trains), float64(mos.Bytes())/1024)
}
