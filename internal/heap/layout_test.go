package heap

import (
	"fmt"
	"testing"
)

// The layout as it was computed before Define reduced it to four
// integers: a switch on Kind per call. Kept verbatim as the reference the
// arithmetic must reproduce.

func refSize(t *TypeDesc, length int) int {
	switch t.Kind {
	case Scalar:
		return (headerWords + t.RefSlots + t.DataWords) * WordBytes
	case RefArray, WordArray:
		return (headerWords + length) * WordBytes
	default:
		panic("heap: unknown kind")
	}
}

func refNumRefs(t *TypeDesc, length int) int {
	switch t.Kind {
	case Scalar:
		return t.RefSlots
	case RefArray:
		return length
	default:
		return 0
	}
}

// refDataWords is Space.DataWords's switch, on a decoded header.
func refDataWords(t *TypeDesc, length int) int {
	switch t.Kind {
	case Scalar:
		return t.DataWords
	case WordArray:
		return length
	default:
		return 0
	}
}

// refDataBase is dataWord's switch for where the data words start; ok is
// false where it refused any data access (a reference array).
func refDataBase(t *TypeDesc) (base int, ok bool) {
	switch t.Kind {
	case Scalar:
		return headerWords + t.RefSlots, true
	case WordArray:
		return headerWords, true
	default:
		return 0, false
	}
}

// TestLayoutArithmeticMatchesKindSwitch: for every kind, several scalar
// shapes and array lengths, Size, NumRefs and the data layout computed
// from Define's four integers equal what the Kind switch computed.
func TestLayoutArithmeticMatchesKindSwitch(t *testing.T) {
	r := NewRegistry()
	types := []*TypeDesc{
		r.DefineScalar("empty", 0, 0),
		r.DefineScalar("refs", 3, 0),
		r.DefineScalar("data", 0, 5),
		r.DefineScalar("node", 2, 1),
		r.DefineScalar("wide", 40, 17),
		r.DefineRefArray("refarray"),
		r.DefineWordArray("wordarray"),
	}
	for _, td := range types {
		for _, length := range []int{0, 1, 2, 7, 255, 256, 1000, 1 << 20} {
			name := fmt.Sprintf("%s(%s) length %d", td.Name, td.Kind, length)
			if got, want := td.Size(length), refSize(td, length); got != want {
				t.Errorf("%s: Size = %d, want %d", name, got, want)
			}
			if got, want := td.NumRefs(length), refNumRefs(td, length); got != want {
				t.Errorf("%s: NumRefs = %d, want %d", name, got, want)
			}
			base, n := td.dataLayout(length)
			if want := refDataWords(td, length); n != want {
				t.Errorf("%s: data words = %d, want %d", name, n, want)
			}
			if wantBase, ok := refDataBase(td); ok && base != wantBase {
				t.Errorf("%s: data base = %d, want %d", name, base, wantBase)
			}
		}
	}
}

// TestDefineRejectsUnsizableLayouts: a kind past WordArray has no
// layout, and a scalar larger than the address space has no size that
// fits the layout's 32-bit words, so Define refuses both with the other
// invalid layouts instead of sizing their instances wrongly.
func TestDefineRejectsUnsizableLayouts(t *testing.T) {
	for _, tc := range []struct {
		kind              Kind
		refSlots, dataWds int
		want              string
	}{
		{WordArray + 1, 0, 0, `heap: type "bad": unknown kind 3`},
		{255, 0, 0, `heap: type "bad": unknown kind 255`},
		{Scalar, 1 << 30, 0, `heap: type "bad": larger than the address space`},
		{Scalar, 1 << 29, 1 << 29, `heap: type "bad": larger than the address space`},
		{Scalar, 1, 1<<63 - 1, `heap: type "bad": larger than the address space`},
	} {
		r := NewRegistry()
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("Define(kind %d, %d, %d): panic %v, want %q", tc.kind, tc.refSlots, tc.dataWds, got, tc.want)
				}
			}()
			r.Define("bad", tc.kind, tc.refSlots, tc.dataWds)
		}()
		if r.Len() != 0 || r.Lookup("bad") != nil {
			t.Errorf("kind %d: the rejected type was registered", tc.kind)
		}
	}
	// The largest scalar that fits is sized exactly.
	td := NewRegistry().DefineScalar("max", 1<<29, maxObjectWords-1<<29)
	if got := td.Size(0); got != 1<<30*WordBytes {
		t.Errorf("the largest scalar is %d bytes, want %d", got, 1<<30*WordBytes)
	}
}
