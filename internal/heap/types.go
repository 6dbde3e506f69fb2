package heap

import "fmt"

// Kind classifies object layouts.
type Kind uint8

const (
	// Scalar objects have a fixed number of reference slots followed by a
	// fixed number of data words, both given by the type descriptor.
	Scalar Kind = iota
	// RefArray objects hold Length() reference slots.
	RefArray
	// WordArray objects hold Length() non-reference data words.
	WordArray
)

func (k Kind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case RefArray:
		return "refarray"
	case WordArray:
		return "wordarray"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// TypeID indexes a type in a Registry. IDs are small dense integers so
// they fit the object header's type field.
type TypeID uint32

// maxTypeID bounds TypeID so it fits in the header's 24-bit type field.
const maxTypeID = 1<<24 - 1

// maxObjectWords bounds a scalar's slots and data words together: no
// object is larger than the 32-bit address space.
const maxObjectWords = 1<<30 - headerWords

// TypeDesc describes the layout of a class of objects, playing the role
// of Jikes RVM's TIB: it is what the collector consults to find an
// object's reference slots and size.
//
// Define reduces the layout to four integers, so that Size and NumRefs,
// which every allocation, barriered store and traced object asks, are
// one multiply-add each and no branch on Kind. An instance of length n
// is baseWords + n*elemWords words, header included, and the
// baseRefs + n*elemRefs words after the header are its reference slots;
// the rest are data words. The four fill the padding after ID and Kind,
// so they cost a TypeDesc no bytes.
type TypeDesc struct {
	ID                  TypeID
	baseWords           int32
	Name                string
	Kind                Kind
	elemWords, elemRefs uint8
	baseRefs            int32
	RefSlots            int // scalar only: number of reference slots
	DataWords           int // scalar only: number of data words after the refs
}

// Size returns the total object size in bytes for an instance of t with
// the given array length (ignored for scalars).
func (t *TypeDesc) Size(length int) int {
	return (int(t.baseWords) + length*int(t.elemWords)) * WordBytes
}

// NumRefs returns the number of reference slots in an instance of t with
// the given array length.
func (t *TypeDesc) NumRefs(length int) int {
	return int(t.baseRefs) + length*int(t.elemRefs)
}

// dataLayout returns where the data words of an instance of t with the
// given array length start, in words from its header, and how many there
// are: every word after the header and the reference slots.
func (t *TypeDesc) dataLayout(length int) (base, n int) {
	refs := t.NumRefs(length)
	return headerWords + refs, t.Size(length)>>WordShift - headerWords - refs
}

// Registry interns type descriptors. The zero TypeID is reserved so that
// a zero header word is always invalid — it catches reads of unformatted
// memory in tests.
//
// A registry may be Reset and defined into again: it keeps the
// descriptors it made, and Define fills them in place, in definition
// order, so a reset registry hands out the IDs a new one would and makes
// no Go object for a type it has defined before.
type Registry struct {
	types  []*TypeDesc
	byName map[string]*TypeDesc
}

// NewRegistry returns an empty registry with TypeID 0 reserved.
func NewRegistry() *Registry {
	r := new(Registry)
	r.Reset()
	return r
}

// Reset empties the registry, as NewRegistry builds it: every name and ID
// it knew is forgotten, and the next Define is TypeID 1 again. The
// descriptors it handed out before are refilled by later Defines, so none
// may be in use: reset a registry only once its heap's run is over.
func (r *Registry) Reset() {
	if r.byName == nil {
		r.byName = make(map[string]*TypeDesc)
	}
	clear(r.byName)
	r.types = append(r.types[:0], nil) // ID 0 reserved
}

// Define registers a new type and assigns its ID. It panics on duplicate
// names or invalid layouts; type definition is program setup, not a
// recoverable runtime event.
func (r *Registry) Define(name string, kind Kind, refSlots, dataWords int) *TypeDesc {
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("heap: duplicate type %q", name))
	}
	if kind > WordArray {
		panic(fmt.Sprintf("heap: type %q: unknown kind %d", name, uint8(kind)))
	}
	if kind != Scalar && (refSlots != 0 || dataWords != 0) {
		panic(fmt.Sprintf("heap: type %q: array kinds take no slot counts", name))
	}
	if refSlots < 0 || dataWords < 0 {
		panic(fmt.Sprintf("heap: type %q: negative layout", name))
	}
	if refSlots > maxObjectWords || dataWords > maxObjectWords-refSlots {
		panic(fmt.Sprintf("heap: type %q: larger than the address space", name))
	}
	if len(r.types) > maxTypeID {
		panic("heap: too many types")
	}
	// The descriptor past the end, left by a Reset, is refilled.
	var t *TypeDesc
	if n := len(r.types); n < cap(r.types) {
		t = r.types[:n+1][n]
	}
	if t == nil {
		t = new(TypeDesc)
	}
	*t = TypeDesc{
		ID:        TypeID(len(r.types)),
		Name:      name,
		Kind:      kind,
		RefSlots:  refSlots,
		DataWords: dataWords,
	}
	t.baseWords, t.baseRefs = int32(headerWords+refSlots+dataWords), int32(refSlots) // zero slot counts for arrays
	switch kind {
	case RefArray:
		t.elemWords, t.elemRefs = 1, 1
	case WordArray:
		t.elemWords = 1
	}
	r.types = append(r.types, t)
	r.byName[name] = t
	return t
}

// DefineScalar registers a scalar type with refSlots references and
// dataWords words of non-reference payload.
func (r *Registry) DefineScalar(name string, refSlots, dataWords int) *TypeDesc {
	return r.Define(name, Scalar, refSlots, dataWords)
}

// DefineRefArray registers a reference-array type.
func (r *Registry) DefineRefArray(name string) *TypeDesc {
	return r.Define(name, RefArray, 0, 0)
}

// DefineWordArray registers a data-array type.
func (r *Registry) DefineWordArray(name string) *TypeDesc {
	return r.Define(name, WordArray, 0, 0)
}

// Get returns the descriptor for id, or panics if id is unknown: an
// unknown id read out of a header means heap corruption.
func (r *Registry) Get(id TypeID) *TypeDesc {
	if int(id) <= 0 || int(id) >= len(r.types) {
		panic(fmt.Sprintf("heap: invalid type id %d", id))
	}
	return r.types[id]
}

// Lookup returns the descriptor registered under name, or nil.
func (r *Registry) Lookup(name string) *TypeDesc { return r.byName[name] }

// Len returns the number of registered types (excluding the reserved 0).
func (r *Registry) Len() int { return len(r.types) - 1 }
