package engine

import (
	"errors"
	"reflect"
	"testing"

	"samrpart/internal/geom"
	"samrpart/internal/transport"
)

// TestWireAssignmentMalformed feeds the assignment decoder every class of
// out-of-range wire form a peer could send: each must come back as an error
// wrapping transport.ErrMalformed, never as a panic or a corrupt view.
func TestWireAssignmentMalformed(t *testing.T) {
	const ranks = 4
	old := benchTileAssignment(16, ranks, 0)
	prev := newAsnView(old, 1)
	boxes := old.Boxes
	owners := func(o ...int) []int { return o }
	for name, tc := range map[string]struct {
		prev *asnView
		wire wireAssignment
	}{
		"fewer owners than boxes":  {nil, wireAssignment{Boxes: boxes[:3], Owners: owners(0, 1)}},
		"more owners than boxes":   {nil, wireAssignment{Boxes: boxes[:1], Owners: owners(0, 1)}},
		"negative owner":           {nil, wireAssignment{Boxes: boxes[:2], Owners: owners(0, -1)}},
		"owner past the group":     {nil, wireAssignment{Boxes: boxes[:2], Owners: owners(0, ranks)}},
		"delta without standing":   {nil, wireAssignment{Delta: true, Changed: []int32{0}, NewOwners: []int32{1}}},
		"delta index past the end": {prev, wireAssignment{Delta: true, Changed: []int32{16}, NewOwners: []int32{1}}},
		"delta negative index":     {prev, wireAssignment{Delta: true, Changed: []int32{-1}, NewOwners: []int32{1}}},
		"delta repeated index":     {prev, wireAssignment{Delta: true, Changed: []int32{3, 3}, NewOwners: []int32{1, 2}}},
		"delta descending index":   {prev, wireAssignment{Delta: true, Changed: []int32{5, 2}, NewOwners: []int32{1, 2}}},
		"delta owner past group":   {prev, wireAssignment{Delta: true, Changed: []int32{2}, NewOwners: []int32{ranks}}},
		"delta negative owner":     {prev, wireAssignment{Delta: true, Changed: []int32{2}, NewOwners: []int32{-3}}},
		"delta short owner list":   {prev, wireAssignment{Delta: true, Changed: []int32{2, 4}, NewOwners: []int32{1}}},
		"delta long owner list":    {prev, wireAssignment{Delta: true, Changed: []int32{2}, NewOwners: []int32{1, 2}}},
	} {
		if _, err := viewFromWire(tc.prev, &tc.wire, ranks, 1); !errors.Is(err, transport.ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestRejoinWelcomeMalformed sends a restarted rank welcomes a peer could
// corrupt — an owner outside the group, mismatched box and owner tables, a
// membership of the wrong size — and checks rejoin rejects each with
// ErrMalformed instead of indexing with them.
func TestRejoinWelcomeMalformed(t *testing.T) {
	boxes := geom.BoxList{geom.Box2(0, 0, 7, 7), geom.Box2(8, 0, 15, 7)}
	for name, w := range map[string]welcomeMsg{
		"owner past the group": {Alive: []bool{true, true}, Boxes: boxes, Owners: []int{0, 2}},
		"negative owner":       {Alive: []bool{true, true}, Boxes: boxes, Owners: []int{-1, 0}},
		"short owner table":    {Alive: []bool{true, true}, Boxes: boxes, Owners: []int{0}},
		"wrong group size":     {Alive: []bool{true, true, true}, Boxes: boxes, Owners: []int{0, 0}},
	} {
		eps, err := transport.NewGroup(2)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := transport.EncodeGob(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := eps[0].Send(1, tagRejoinWelcome, payload); err != nil {
			t.Fatal(err)
		}
		cfg := ftConfig(t, 4, t.TempDir())
		cfg.CapsAt = capsSwitcher(2)
		r, err := newSPMDRun(eps[1], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.rejoin(); !errors.Is(err, transport.ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// FuzzWireAssignment builds wire assignments from arbitrary bytes — owner
// tables, delta indexes and delta owners, each byte a signed value — and
// feeds them to the decoder against a standing view: it must return a view
// or a typed ErrMalformed, never panic, and every view it returns must hold
// in-range owners and the own-box list a full rescan would give.
func FuzzWireAssignment(f *testing.F) {
	const ranks, me = 4, 1
	old := benchTileAssignment(16, ranks, 0)
	f.Add(false, []byte{0, 1, 2, 3}, []byte(nil), []byte(nil))
	f.Add(true, []byte(nil), []byte{0, 3, 9}, []byte{1, 2, 3})
	f.Add(true, []byte(nil), []byte{4, 4}, []byte{1, 1})
	f.Add(false, []byte{0, 0xff}, []byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, delta bool, owners, changed, newOwners []byte) {
		wire := wireAssignment{Delta: delta}
		if !delta {
			n := min(len(owners), len(old.Boxes))
			wire.Boxes = old.Boxes[:n]
			for _, o := range owners {
				wire.Owners = append(wire.Owners, int(int8(o)))
			}
		}
		for _, c := range changed {
			wire.Changed = append(wire.Changed, int32(int8(c)))
		}
		for _, o := range newOwners {
			wire.NewOwners = append(wire.NewOwners, int32(int8(o)))
		}
		v, err := viewFromWire(newAsnView(old, me), &wire, ranks, me)
		if err != nil {
			if !errors.Is(err, transport.ErrMalformed) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(v.Boxes) != len(v.Owners) {
			t.Fatalf("view of %d boxes has %d owners", len(v.Boxes), len(v.Owners))
		}
		for i, o := range v.Owners {
			if o < 0 || o >= ranks {
				t.Fatalf("box %d owner %d outside [0,%d)", i, o, ranks)
			}
		}
		if want := newAsnView(v.Assignment, me).mine; !reflect.DeepEqual(v.mine, want) && len(v.mine)+len(want) > 0 {
			t.Fatalf("own-box list %v, rescan gives %v", v.mine, want)
		}
	})
}
