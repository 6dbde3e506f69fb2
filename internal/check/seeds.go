package check

// Seed scripts for the fuzz corpus, one per bundled benchmark, shaped on
// each workload's object demographics at small scale (a few hundred ops,
// so an oracle pass over a seed costs milliseconds). They are hand-built
// rather than converted traces: fuzz inputs are byte strings in the
// script encoding, and these give the fuzzer structurally interesting
// starting points — deep scope nesting, resident structures threaded
// with young pointers, frame-sized arrays, pretenured and immortal data —
// in the dialect it can actually mutate.

// NamedScript pairs a seed script with its workload name.
type NamedScript struct {
	Name   string
	Script Script
}

// SeedScripts returns the six workload-shaped seeds in a fixed order.
func SeedScripts() []NamedScript {
	return []NamedScript{
		{"jess", seedJess()},
		{"raytrace", seedRaytrace()},
		{"db", seedDB()},
		{"javac", seedJavac()},
		{"jack", seedJack()},
		{"pseudojbb", seedPseudoJBB()},
		{"server-steady", seedServerSteady()},
		{"server-flip", seedServerFlip()},
		{"server-growth", seedServerGrowth()},
	}
}

// seedJess: rule-engine churn — bursts of short-lived nodes inside
// scopes, a working-memory survivor kept from each burst.
func seedJess() Script {
	var s Script
	s = append(s, Op{Kind: OpAllocGlobal}) // working memory anchor
	for burst := 0; burst < 12; burst++ {
		s = append(s, Op{Kind: OpPush})
		for i := 0; i < 10; i++ {
			s = append(s, Op{Kind: OpAlloc})
			s = append(s, Op{Kind: OpSetRef, A: byte(i), B: 0, C: byte(i + 1)})
		}
		s = append(s, Op{Kind: OpKeep, A: byte(burst * 3)})
		s = append(s, Op{Kind: OpSetRef, A: 0, B: 1, C: 255}) // anchor -> kept
		s = append(s, Op{Kind: OpWork, A: 16})
		s = append(s, Op{Kind: OpPop})
	}
	s = append(s, Op{Kind: OpCollect})
	return s
}

// seedRaytrace: a resident scene graph built up front, then a rendering
// loop of short-lived word-array "vectors" probing the scene.
func seedRaytrace() Script {
	var s Script
	for i := 0; i < 8; i++ {
		s = append(s, Op{Kind: OpAllocGlobal})
		s = append(s, Op{Kind: OpAllocArr, A: 7}) // length 8
		s = append(s, Op{Kind: OpSetRef, A: byte(2 * i), B: 0, C: byte(2*i + 1)})
	}
	for ray := 0; ray < 16; ray++ {
		s = append(s, Op{Kind: OpPush})
		for i := 0; i < 6; i++ {
			s = append(s, Op{Kind: OpAllocWords, A: 3})
			s = append(s, Op{Kind: OpSetData, A: 255, B: byte(i), C: byte(ray)})
		}
		s = append(s, Op{Kind: OpGetRef, A: byte(ray), B: 0})
		s = append(s, Op{Kind: OpWork, A: 8})
		s = append(s, Op{Kind: OpPop})
		if ray%5 == 4 {
			s = append(s, Op{Kind: OpCollect})
		}
	}
	return s
}

// seedDB: a resident record store (frame-sized index plus record arrays)
// with in-place field updates and occasional record replacement.
func seedDB() Script {
	var s Script
	s = append(s, Op{Kind: OpAllocLarge}) // the index
	for i := 0; i < 10; i++ {
		s = append(s, Op{Kind: OpAllocBig})
		s = append(s, Op{Kind: OpSetRef, A: 0, B: byte(i), C: byte(i + 1)})
	}
	for txn := 0; txn < 20; txn++ {
		s = append(s, Op{Kind: OpGetRef, A: 0, B: byte(txn % 10)})
		s = append(s, Op{Kind: OpSetData, A: 255, B: byte(txn), C: byte(txn * 7)})
		s = append(s, Op{Kind: OpRelease, A: 255})
		if txn%4 == 3 { // replace a record
			s = append(s, Op{Kind: OpAllocBig})
			s = append(s, Op{Kind: OpSetRef, A: 0, B: byte(txn % 10), C: 255})
			s = append(s, Op{Kind: OpRelease, A: 255})
		}
		s = append(s, Op{Kind: OpWork, A: 4})
	}
	s = append(s, Op{Kind: OpCollectFull})
	return s
}

// seedJavac: compiler phases — medium-lifetime structures that survive a
// few collections then die in waves, with symbol-table survivors.
func seedJavac() Script {
	var s Script
	s = append(s, Op{Kind: OpAllocImmortal}) // "boot" symbol table root
	for phase := 0; phase < 4; phase++ {
		s = append(s, Op{Kind: OpPush})
		for i := 0; i < 15; i++ {
			s = append(s, Op{Kind: OpAlloc})
			s = append(s, Op{Kind: OpSetRef, A: byte(i), B: 1, C: byte(i / 2)})
		}
		s = append(s, Op{Kind: OpKeep, A: 200})
		s = append(s, Op{Kind: OpKeep, A: 100})
		s = append(s, Op{Kind: OpSetRef, A: 0, B: 0, C: 254}) // immortal -> kept
		s = append(s, Op{Kind: OpCollect})
		s = append(s, Op{Kind: OpPop})
		s = append(s, Op{Kind: OpWork, A: 32})
	}
	s = append(s, Op{Kind: OpCollectFull})
	return s
}

// seedJack: parser-generator bursts — the same alloc/release cycle
// repeated, nearly everything dying young, nursery pressure dominant.
func seedJack() Script {
	var s Script
	for cycle := 0; cycle < 10; cycle++ {
		s = append(s, Op{Kind: OpPush})
		for i := 0; i < 12; i++ {
			s = append(s, Op{Kind: OpAlloc})
			if i%3 == 2 {
				s = append(s, Op{Kind: OpRelease, A: byte(i)})
			}
		}
		s = append(s, Op{Kind: OpAllocArr, A: 11})
		s = append(s, Op{Kind: OpSetRef, A: 255, B: byte(cycle), C: 0})
		s = append(s, Op{Kind: OpPop})
	}
	s = append(s, Op{Kind: OpCollect})
	return s
}

// seedServerSteady: the internal/server request shape — a global
// directory of bucket ref-arrays holding word-array values, then a
// read-heavy request loop: two-level lookup, transient response scratch
// dying with the request scope, periodic nursery collections.
func seedServerSteady() Script {
	var s Script
	s = append(s, Op{Kind: OpAllocGlobal}) // directory
	for b := 0; b < 4; b++ {
		s = append(s, Op{Kind: OpAllocArr, A: 7}) // bucket
		s = append(s, Op{Kind: OpSetRef, A: 0, B: byte(b), C: 255})
		for k := 0; k < 4; k++ {
			s = append(s, Op{Kind: OpAllocWords, A: 5}) // value
			s = append(s, Op{Kind: OpSetData, A: 255, B: 0, C: byte(4*b + k)})
			s = append(s, Op{Kind: OpSetRef, A: byte(b + 1), B: byte(k), C: 255})
		}
	}
	for req := 0; req < 16; req++ {
		s = append(s, Op{Kind: OpPush})
		s = append(s, Op{Kind: OpGetRef, A: 0, B: byte(req % 4)})   // dir -> bucket
		s = append(s, Op{Kind: OpGetRef, A: 255, B: byte(req % 4)}) // bucket -> value
		s = append(s, Op{Kind: OpAllocWords, A: 9})                 // response scratch
		s = append(s, Op{Kind: OpSetData, A: 255, B: 0, C: byte(req)})
		s = append(s, Op{Kind: OpWork, A: 6})
		s = append(s, Op{Kind: OpPop})
		if req%8 == 7 {
			s = append(s, Op{Kind: OpCollect})
		}
	}
	return s
}

// seedServerFlip: the write-heavy phase after a ratio flip — requests
// replace values in place (the old value becomes floating garbage the
// nursery must find), with the hot bucket shifting mid-script like a
// popularity reshuffle.
func seedServerFlip() Script {
	var s Script
	s = append(s, Op{Kind: OpAllocGlobal})
	for b := 0; b < 3; b++ {
		s = append(s, Op{Kind: OpAllocArr, A: 7})
		s = append(s, Op{Kind: OpSetRef, A: 0, B: byte(b), C: 255})
	}
	for req := 0; req < 18; req++ {
		hot := 0
		if req >= 9 { // reshuffle: the hot bucket moves
			hot = 2
		}
		s = append(s, Op{Kind: OpPush})
		s = append(s, Op{Kind: OpGetRef, A: 0, B: byte(hot)})
		s = append(s, Op{Kind: OpAllocWords, A: 6}) // replacement value
		s = append(s, Op{Kind: OpSetData, A: 255, B: 1, C: byte(req * 3)})
		s = append(s, Op{Kind: OpSetRef, A: 254, B: byte(req % 8), C: 255})
		s = append(s, Op{Kind: OpWork, A: 4})
		s = append(s, Op{Kind: OpPop})
		if req%6 == 5 {
			s = append(s, Op{Kind: OpCollect})
		}
	}
	s = append(s, Op{Kind: OpCollectFull})
	return s
}

// seedServerGrowth: working-set growth — the store gains fresh buckets
// and values mid-script (populated outside any request scope), then the
// read loop spans old and new keys.
func seedServerGrowth() Script {
	var s Script
	s = append(s, Op{Kind: OpAllocGlobal})
	s = append(s, Op{Kind: OpAllocArr, A: 7})
	s = append(s, Op{Kind: OpSetRef, A: 0, B: 0, C: 255})
	for req := 0; req < 8; req++ {
		s = append(s, Op{Kind: OpPush})
		s = append(s, Op{Kind: OpGetRef, A: 0, B: 0})
		s = append(s, Op{Kind: OpAllocWords, A: 9})
		s = append(s, Op{Kind: OpPop})
	}
	for b := 1; b < 4; b++ { // growth: new buckets join the directory
		s = append(s, Op{Kind: OpAllocArr, A: 7})
		s = append(s, Op{Kind: OpSetRef, A: 0, B: byte(b), C: 255})
		for k := 0; k < 3; k++ {
			s = append(s, Op{Kind: OpAllocWords, A: 5})
			s = append(s, Op{Kind: OpSetRef, A: 254, B: byte(k), C: 255})
		}
	}
	s = append(s, Op{Kind: OpCollect})
	for req := 0; req < 12; req++ {
		s = append(s, Op{Kind: OpPush})
		s = append(s, Op{Kind: OpGetRef, A: 0, B: byte(req % 4)})
		s = append(s, Op{Kind: OpAllocWords, A: 9})
		s = append(s, Op{Kind: OpSetData, A: 255, B: 0, C: byte(req)})
		s = append(s, Op{Kind: OpWork, A: 6})
		s = append(s, Op{Kind: OpPop})
	}
	s = append(s, Op{Kind: OpCollectFull})
	return s
}

// seedPseudoJBB: steady-state transaction mix over resident warehouses —
// pretenured longterm data, immortal catalog, frame-sized orders, young churn.
func seedPseudoJBB() Script {
	var s Script
	s = append(s, Op{Kind: OpAllocImmortal})
	for w := 0; w < 4; w++ {
		s = append(s, Op{Kind: OpAllocPretenure})
		s = append(s, Op{Kind: OpSetRef, A: 0, B: 0, C: 255})
	}
	for txn := 0; txn < 15; txn++ {
		s = append(s, Op{Kind: OpPush})
		s = append(s, Op{Kind: OpAllocBig})
		s = append(s, Op{Kind: OpAlloc})
		s = append(s, Op{Kind: OpSetRef, A: 254, B: 0, C: 255})
		if txn%6 == 5 {
			s = append(s, Op{Kind: OpAllocLarge}) // a frame-sized order
		}
		s = append(s, Op{Kind: OpSetRef, A: byte(txn % 5), B: 0, C: 254})
		s = append(s, Op{Kind: OpWork, A: 12})
		s = append(s, Op{Kind: OpPop})
		if txn%7 == 6 {
			s = append(s, Op{Kind: OpCollect})
		}
	}
	s = append(s, Op{Kind: OpCollectFull})
	return s
}
