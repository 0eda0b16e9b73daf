package soak

import (
	"cmp"
	"fmt"
	"slices"

	"p4update/internal/topo"
)

// inlineHops is how many hops of a flow's path its record indexes
// without a separate allocation. A fat-tree's edge-to-edge shortest
// paths have 4 hops; on B4 under the squall storm's reroutes they reach
// 9 (7 or more on 2.4 % of paths), which is why this is not smaller.
const inlineHops = 10

// hopSlot records one hop of a flow's indexed path: the link and the
// flow's position in that link's flow list.
type hopSlot struct {
	link topo.LinkID
	pos  int32
}

// linkIndex lists, per LinkID, the live flows whose current path
// crosses the link. It is intrusive: each flow records where it sits in
// every list (soakFlow.hops), so removal is a swap with the list's last
// entry and neither operation hashes or, once the lists have grown to
// the live population, allocates. List order is arbitrary; waveScan
// sorts what it reads.
type linkIndex [][]*soakFlow

func newLinkIndex(g *topo.Topology) linkIndex { return make(linkIndex, g.NumLinks()) }

// add appends f to the list of every link on f.path.
func (ix linkIndex) add(g *topo.Topology, f *soakFlow) {
	n := max(len(f.path)-1, 0)
	if n <= inlineHops {
		f.hops = f.inline[:n]
	} else {
		f.hops = make([]hopSlot, n)
	}
	for i := 0; i < n; i++ {
		l, ok := g.LinkBetween(f.path[i], f.path[i+1])
		if !ok {
			panic(fmt.Sprintf("soak: no link %d-%d on flow path", f.path[i], f.path[i+1]))
		}
		f.hops[i] = hopSlot{link: l.ID, pos: int32(len(ix[l.ID]))}
		ix[l.ID] = append(ix[l.ID], f)
	}
}

// remove takes f out of every list add put it in. The last flow of each
// list fills f's place and has its recorded position updated.
func (ix linkIndex) remove(f *soakFlow) {
	for _, h := range f.hops {
		s := ix[h.link]
		last := len(s) - 1
		moved := s[last]
		s[h.pos] = moved
		moved.movedTo(h.link, h.pos)
		s[last] = nil
		ix[h.link] = s[:last]
	}
	f.hops = f.hops[:0]
}

// worklist returns the flows on link sorted by FlowID, in dst's storage.
func (ix linkIndex) worklist(dst []*soakFlow, link topo.LinkID) []*soakFlow {
	dst = append(dst[:0], ix[link]...)
	slices.SortFunc(dst, func(a, b *soakFlow) int { return cmp.Compare(a.id, b.id) })
	return dst
}

// movedTo records that f now sits at pos in link's list.
func (f *soakFlow) movedTo(link topo.LinkID, pos int32) {
	for i := range f.hops {
		if f.hops[i].link == link {
			f.hops[i].pos = pos
			return
		}
	}
}
