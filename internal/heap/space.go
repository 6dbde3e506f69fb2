package heap

import "fmt"

// Space is the simulated virtual address space: a growable set of
// power-of-two sized frames, each backed by its own zeroed word slab.
// Frames are mapped on demand and unmapped when their increment is
// collected; unmapped frame numbers are recycled in FIFO order so that
// address reuse — and therefore stale-pointer bugs — are exercised, just
// as they would be against a real mmap'd heap.
//
// Slabs are []uint32 rather than []byte: the simulated machine is
// word-addressed for every collector-visible access, so a word is one
// indexed load or store instead of four byte operations, and copying an
// object is a copy() over word slices. The collector's trace and the
// mutator's field accessors do not go through Word/SetWord: they resolve
// an address once and then work inside the slab, through the views of
// slab.go. Word/SetWord remain for tests, the validator and as the
// reference model the slab-resident kernel is checked against. Unmapped
// slabs are kept on a list and re-zeroed on reuse, keeping frame turnover
// off the Go allocator; Release hands a finished run's slabs to the next
// run's Space through a process-wide free list, and its tables to whoever
// builds that Space (NewSpaceFrom).
type Space struct {
	Types *Registry

	frameBytes int
	frameShift uint
	wordMask   uint32     // words-per-frame - 1: word index -> slab offset
	frames     [][]uint32 // indexed by Frame; nil when unmapped
	free       []Frame    // FIFO recycle queue of unmapped frame numbers: free[freeHead:]
	freeHead   int
	pool       [][]uint32 // unmapped slabs awaiting reuse
	mapped     int
	released   bool

	// Hooks for cost accounting; nil-safe.
	OnMap   func()
	OnUnmap func()

	// MapGate, when non-nil, is consulted by TryMapFrame/TryMapSpan
	// before mapping; returning false fails the map (fault injection).
	// MapFrame/MapSpan ignore it — boot-image and other must-succeed
	// maps stay ungated.
	MapGate func() bool
}

// NewSpace creates an address space with the given frame size, which must
// be a power of two and at least 256 bytes. The registry may be shared
// between spaces (e.g. a collected space and an immortal space).
func NewSpace(frameBytes int, types *Registry) *Space {
	return NewSpaceFrom(frameBytes, types, SpaceStorage{})
}

// SpaceStorage is what a released Space's tables leave behind: the frame
// table, the recycle queue and the list of unmapped slabs, each emptied
// with its array kept. Only their capacity carries over, so a Space built
// from them is a fresh one.
type SpaceStorage struct {
	frames [][]uint32
	free   []Frame
	pool   [][]uint32
}

// NewSpaceFrom is NewSpace building its tables on st's arrays (the zero
// SpaceStorage builds them from nothing).
func NewSpaceFrom(frameBytes int, types *Registry, st SpaceStorage) *Space {
	if frameBytes < 256 || frameBytes&(frameBytes-1) != 0 {
		panic(fmt.Sprintf("heap: frame size %d is not a power of two >= 256", frameBytes))
	}
	shift := uint(0)
	for 1<<shift != frameBytes {
		shift++
	}
	return &Space{
		Types:      types,
		frameBytes: frameBytes,
		frameShift: shift,
		wordMask:   uint32(frameBytes>>WordShift) - 1,
		frames:     append(st.frames[:0], nil), // frame 0 reserved, never mapped
		free:       st.free[:0],
		pool:       st.pool[:0],
	}
}

// FrameBytes returns the frame size in bytes.
func (s *Space) FrameBytes() int { return s.frameBytes }

// FrameShift returns log2(FrameBytes); the write barrier's shift.
func (s *Space) FrameShift() uint { return s.frameShift }

// FrameOf returns the frame containing a.
func (s *Space) FrameOf(a Addr) Frame { return Frame(uint32(a) >> s.frameShift) }

// FrameBase returns the first address of frame f.
func (s *Space) FrameBase(f Frame) Addr { return Addr(uint32(f) << s.frameShift) }

// FrameLimit returns one past the last address of frame f.
func (s *Space) FrameLimit(f Frame) Addr { return s.FrameBase(f) + Addr(s.frameBytes) }

// NumFrames returns the highest frame number ever mapped plus one; frame
// metadata tables in the collectors are sized by this.
func (s *Space) NumFrames() int { return len(s.frames) }

// MappedFrames returns the number of currently mapped frames.
func (s *Space) MappedFrames() int { return s.mapped }

// Mapped reports whether frame f is currently mapped.
func (s *Space) Mapped(f Frame) bool {
	return int(f) < len(s.frames) && s.frames[f] != nil
}

// slabLists holds the slabs of released Spaces, one list per frame size
// (indexed by frame shift), so that the runs of one process — the probes
// of a min-heap search, an engine's jobs, a farm worker's specs — build
// their heaps from one heap's worth of slabs, however many Go collections
// ran in between. The tables a Space indexes its slabs by are not listed
// here: Release returns them to its caller, which knows what it builds
// next.
var slabLists [32]FreeList[[]uint32]

// Release ends the Space's life and appends every slab it holds, mapped
// or unmapped, to the process-wide list for its frame size, and returns
// its emptied tables for the caller to build the next Space on.
// Afterwards every frame is unmapped — any access faults — and mapping
// panics: the slabs may already belong to another run. Releasing twice is
// harmless (and returns nothing the second time).
func (s *Space) Release() SpaceStorage {
	if s.released {
		return SpaceStorage{}
	}
	s.released = true
	l := &slabLists[s.frameShift]
	l.mu.Lock()
	l.items = append(l.items, s.pool...)
	for _, slab := range s.frames {
		if slab != nil {
			l.items = append(l.items, slab)
		}
	}
	l.mu.Unlock()
	clear(s.frames)
	clear(s.pool)
	st := SpaceStorage{frames: s.frames[:0], free: s.free[:0], pool: s.pool[:0]}
	s.frames, s.pool, s.free, s.freeHead, s.mapped = nil, nil, nil, 0, 0
	return st
}

// newSlab returns a zeroed words-per-frame slab, reusing an unmapped one
// when available — the Space's own first, then one a released Space left
// behind: clearing a recycled slab is a memclr, with none of the
// allocator traffic a fresh make incurs on every collection. It makes a
// slab only when both lists are empty.
func (s *Space) newSlab() []uint32 {
	if s.released {
		panic("heap: map on a released space")
	}
	var slab []uint32
	if n := len(s.pool); n > 0 {
		slab = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else if slab, _ = slabLists[s.frameShift].Take(); slab == nil {
		return make([]uint32, s.frameBytes>>WordShift)
	}
	clear(slab)
	return slab
}

// MapFrame maps a fresh zeroed frame and returns its number. Recycled
// frame numbers are reused FIFO.
func (s *Space) MapFrame() Frame {
	var f Frame
	if s.freeHead < len(s.free) {
		f = s.free[s.freeHead]
		s.freeHead++
	} else {
		f = Frame(len(s.frames))
		s.frames = append(s.frames, nil)
	}
	s.frames[f] = s.newSlab()
	s.mapped++
	if s.OnMap != nil {
		s.OnMap()
	}
	return f
}

// TryMapFrame is MapFrame behind the MapGate: with no gate (or a
// passing one) it maps a fresh frame; a vetoing gate fails the map
// without side effects. Collectible-frame maps go through here so fault
// injection can fail the Nth one.
func (s *Space) TryMapFrame() (Frame, bool) {
	if s.MapGate != nil && !s.MapGate() {
		return 0, false
	}
	return s.MapFrame(), true
}

// TryMapSpan is MapSpan behind the MapGate (one gate consultation per
// span, not per frame).
func (s *Space) TryMapSpan(n int) (Frame, bool) {
	if s.MapGate != nil && !s.MapGate() {
		return 0, false
	}
	return s.MapSpan(n), true
}

// UnmapFrame releases frame f. Touching its addresses afterwards panics,
// which is the simulated equivalent of a segfault.
func (s *Space) UnmapFrame(f Frame) {
	if !s.Mapped(f) {
		panic(fmt.Sprintf("heap: unmap of unmapped frame %d", f))
	}
	s.pool = append(s.pool, s.frames[f])
	s.frames[f] = nil
	if len(s.free) == cap(s.free) && 2*s.freeHead >= len(s.free) {
		// Full array, at least half of it already handed out: slide the
		// queue back to the front instead of growing. Each slide moves at
		// most as many entries as it frees, so the array settles at a
		// small multiple of the most frames ever waiting at once.
		s.free = s.free[:copy(s.free, s.free[s.freeHead:])]
		s.freeHead = 0
	}
	s.free = append(s.free, f)
	s.mapped--
	if s.OnUnmap != nil {
		s.OnUnmap()
	}
}

// MapSpan maps n consecutive fresh frames (for a large object spanning
// frames) and returns the first. Span frame numbers are always newly
// minted — the single-frame recycle queue is not consulted — so the
// addresses are guaranteed contiguous. A span is released frame by frame
// with UnmapFrame, and its frame numbers are recycled individually.
func (s *Space) MapSpan(n int) Frame {
	if n < 1 {
		panic("heap: MapSpan of non-positive length")
	}
	f := Frame(len(s.frames))
	for i := 0; i < n; i++ {
		s.frames = append(s.frames, s.newSlab())
		s.mapped++
		if s.OnMap != nil {
			s.OnMap()
		}
	}
	return f
}

// fault reconstructs the precise panic for a bad access. It is kept out
// of line so that lookup, which every access goes through, inlines.
func (s *Space) fault(a Addr, write bool) {
	if a&3 != 0 {
		if write {
			panic(fmt.Sprintf("heap: misaligned write at %v", a))
		}
		panic(fmt.Sprintf("heap: misaligned read at %v", a))
	}
	panic(fmt.Sprintf("heap: fault at %v (frame %d unmapped)", a, uint32(a)>>s.frameShift))
}

// lookup translates a to the word slab of its frame, or nil when a is
// misaligned or the frame is not mapped: the caller faults. Word wordOff(a)
// of the slab is the word at a.
func (s *Space) lookup(a Addr) []uint32 {
	if f := uint32(a) >> s.frameShift; a&3 == 0 && int(f) < len(s.frames) {
		return s.frames[f]
	}
	return nil
}

// wordOff returns a's word offset within its frame's slab.
func (s *Space) wordOff(a Addr) uint32 { return uint32(a) >> WordShift & s.wordMask }

// slabAt returns the word slab of the frame containing a and a's word
// offset within it, faulting if the address is unmapped or misaligned.
func (s *Space) slabAt(a Addr, write bool) ([]uint32, uint32) {
	slab := s.lookup(a)
	if slab == nil {
		s.fault(a, write)
	}
	return slab, s.wordOff(a)
}

// ZeroRange zeroes n bytes starting at a; the range must lie within a
// single frame. Fresh slabs arrive zeroed, but storage reclaimed in
// place (mark-region line sweeps) still holds the dead objects' bytes —
// allocators reusing such ranges must re-zero them so new objects see
// nil slots and zero data, exactly as they would in a fresh frame.
func (s *Space) ZeroRange(a Addr, n int) {
	slab, off := s.slabAt(a, true)
	clear(slab[off : off+uint32(n)>>WordShift])
}

// Word reads the word at byte address a.
func (s *Space) Word(a Addr) uint32 {
	slab, off := s.slabAt(a, false)
	return slab[off]
}

// SetWord writes the word at byte address a.
func (s *Space) SetWord(a Addr, v uint32) {
	slab, off := s.slabAt(a, true)
	slab[off] = v
}
