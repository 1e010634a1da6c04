// Package dsm implements the heterogeneous distributed shared memory
// service (hDSM): page-granularity MSI-style coherence between the kernels
// of a replicated-kernel OS. Because the multi-ISA toolchain lays out all
// process state in a common format, pages migrate between machines without
// any content transformation — the identity mapping the paper advocates.
//
// The protocol state is held in a single directory per address space (the
// origin kernel's directory in the real system); transfer and invalidation
// *timing* is charged through the interconnect by the kernel. Faults are
// resolved deterministically at fault time; the faulting thread sleeps
// until the modelled delivery time.
package dsm

import (
	"fmt"
	"sort"
)

// State is a node's coherence state for one page (one byte: a directory
// entry holds one per node of the cluster).
type State uint8

const (
	// Invalid: node has no copy.
	Invalid State = iota
	// Shared: node has a read-only copy.
	Shared
	// Exclusive: node has the only, writable copy.
	Exclusive
)

// NodeStats counts DSM activity per node.
type NodeStats struct {
	ReadFaults  uint64
	WriteFaults uint64
	ColdFaults  uint64 // first-touch, no transfer
	PageIn      uint64 // pages copied to this node
	Invalidates uint64 // copies dropped at this node
	Upgrades    uint64 // shared->exclusive without data transfer
}

// Action tells the kernel what a fault requires. Drop and Protect alias
// scratch the Space owns: they are valid until its next Fault, which is all
// the kernel needs (it applies them before it returns to the guest).
type Action struct {
	// TransferFrom is the node to copy the page from, or -1 (zero-fill /
	// upgrade in place).
	TransferFrom int
	// Drop lists nodes that must drop their copy entirely.
	Drop []int
	// Protect lists nodes that must write-protect their copy (downgrade to
	// Shared).
	Protect []int
	// Grant is the state the faulting node ends with.
	Grant State
	// Cold marks a first-touch fault (no remote traffic).
	Cold bool
}

// Space is the coherence directory for one address space across NumNodes
// kernels.
type Space struct {
	NumNodes int
	pages    map[uint64]*pageInfo
	stats    []NodeStats
	// resident[node] counts pages with a non-Invalid state at node,
	// maintained on every transition so sharing-set queries are O(1).
	resident []int
	// owned counts pages with an owner, maintained by setOwner.
	owned int

	// dropBuf and protectBuf back the Drop and Protect lists of the Action
	// the last Fault returned.
	dropBuf    []int
	protectBuf [1]int

	// infoSlab and stateSlab are the unused tails of the arrays new pages'
	// pageInfo and state vectors are carved from, slabPages at a time.
	infoSlab  []pageInfo
	stateSlab []State
}

// slabPages is how many directory entries one slab refill provides: two
// allocations per 16 pages instead of two per page.
const slabPages = 16

type pageInfo struct {
	// state[node] is each node's coherence state.
	state []State
	// owner is the node holding Exclusive, or the designated responder when
	// the page is Shared.
	owner int
}

// NewSpace builds a directory for n nodes.
func NewSpace(n int) *Space {
	return &Space{
		NumNodes: n,
		pages:    make(map[uint64]*pageInfo),
		stats:    make([]NodeStats, n),
		resident: make([]int, n),
	}
}

// Stats returns node's counters.
func (s *Space) Stats(node int) NodeStats { return s.stats[node] }

// StateOf returns node's coherence state for the page containing addr.
func (s *Space) StateOf(node int, page uint64) State {
	pi := s.pages[page]
	if pi == nil {
		return Invalid
	}
	return pi.state[node]
}

// Owner returns the page's current owner node, or -1 if untouched.
func (s *Space) Owner(page uint64) int {
	pi := s.pages[page]
	if pi == nil {
		return -1
	}
	return pi.owner
}

// Seed marks a page as initially Exclusive at node without counting a fault
// (used by the loader when installing the image).
func (s *Space) Seed(node int, page uint64) {
	pi := s.ensure(page)
	s.setState(pi, node, Exclusive)
	s.setOwner(pi, node)
}

// setState transitions one node's state for a page, maintaining the
// per-node resident counters.
func (s *Space) setState(pi *pageInfo, node int, st State) {
	old := pi.state[node]
	if (old == Invalid) != (st == Invalid) {
		if st == Invalid {
			s.resident[node]--
		} else {
			s.resident[node]++
		}
	}
	pi.state[node] = st
}

// setOwner reassigns a page's owner (-1: none), maintaining the owned-page
// count.
func (s *Space) setOwner(pi *pageInfo, owner int) {
	if (pi.owner < 0) != (owner < 0) {
		if owner < 0 {
			s.owned--
		} else {
			s.owned++
		}
	}
	pi.owner = owner
}

// HasResident reports whether node holds any page of this space (O(1)).
// The sharing-set computation uses it: a node with resident pages can be a
// DSM transfer or invalidation endpoint for the owning process.
func (s *Space) HasResident(node int) bool { return s.resident[node] > 0 }

func (s *Space) ensure(page uint64) *pageInfo {
	pi := s.pages[page]
	if pi == nil {
		if len(s.infoSlab) == 0 {
			s.infoSlab = make([]pageInfo, slabPages)
			s.stateSlab = make([]State, slabPages*s.NumNodes)
		}
		n := s.NumNodes
		pi, s.infoSlab = &s.infoSlab[0], s.infoSlab[1:]
		pi.state, s.stateSlab = s.stateSlab[:n:n], s.stateSlab[n:]
		pi.owner = -1
		s.pages[page] = pi
	}
	return pi
}

// Fault records a fault by node on page and returns the required action.
// The directory is updated immediately (the kernel applies protection
// changes at fault time and charges transfer latency separately).
func (s *Space) Fault(node int, page uint64, write bool) (Action, error) {
	pi := s.ensure(page)
	st := pi.state[node]
	act := Action{TransferFrom: -1}

	if write {
		s.stats[node].WriteFaults++
	} else {
		s.stats[node].ReadFaults++
	}

	switch {
	case pi.owner == -1:
		// First touch anywhere: zero-fill, exclusive.
		act.Cold = true
		act.Grant = Exclusive
		s.stats[node].ColdFaults++
		s.setState(pi, node, Exclusive)
		s.setOwner(pi, node)

	case !write:
		if st != Invalid {
			return act, fmt.Errorf("dsm: read fault on present page %#x (state %d)", page, st)
		}
		// Copy from the owner; both end Shared.
		act.TransferFrom = pi.owner
		s.protectBuf[0] = pi.owner
		act.Protect = s.protectBuf[:]
		act.Grant = Shared
		s.setState(pi, pi.owner, Shared)
		s.setState(pi, node, Shared)
		s.stats[node].PageIn++

	default: // write
		if st == Exclusive {
			return act, fmt.Errorf("dsm: write fault on exclusive page %#x", page)
		}
		// Drop every other copy; from Invalid the content comes from the
		// owner, from Shared the local copy is upgraded in place.
		drop := s.dropBuf[:0]
		for n := 0; n < s.NumNodes; n++ {
			if n != node && pi.state[n] != Invalid {
				drop = append(drop, n)
				s.setState(pi, n, Invalid)
				s.stats[n].Invalidates++
			}
		}
		s.dropBuf = drop
		if len(drop) > 0 {
			act.Drop = drop
		}
		if st == Invalid {
			act.TransferFrom = pi.owner
			s.stats[node].PageIn++
		} else {
			s.stats[node].Upgrades++
		}
		act.Grant = Exclusive
		s.setState(pi, node, Exclusive)
		s.setOwner(pi, node)
	}
	return act, nil
}

// ResidentPages returns how many pages node holds in each state.
func (s *Space) ResidentPages(node int) (shared, exclusive int) {
	for _, pi := range s.pages {
		switch pi.state[node] {
		case Shared:
			shared++
		case Exclusive:
			exclusive++
		}
	}
	return shared, exclusive
}

// OwnedCount returns len(OwnedPages()) without building the list.
func (s *Space) OwnedCount() int { return s.owned }

// OwnedPages returns the page indices any node currently holds (owner set),
// in unspecified order.
func (s *Space) OwnedPages() []uint64 {
	out := make([]uint64, 0, s.owned)
	for pg, pi := range s.pages {
		if pi.owner >= 0 {
			out = append(out, pg)
		}
	}
	return out
}

// SweepNode reclaims every directory reference to a node declared
// permanently dead: its copies are dropped (counted as Invalidates, like any
// other coherence drop) and ownership of pages it was responsible for is
// reassigned to the lowest surviving holder. Pages the dead node held as the
// only copy are reported in lost — their content is gone; the caller decides
// whether that strands the owning process. Both result slices are in
// ascending page order, so the sweep is deterministic over the map.
//
// Without the sweep, pageInfo.owner keeps pointing at the dead node: every
// later read fault would be told to transfer from a machine that will never
// respond, even when live nodes still hold the page Shared.
func (s *Space) SweepNode(node int) (dropped, lost []uint64) {
	pages := make([]uint64, 0, len(s.pages))
	for pg := range s.pages {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pg := range pages {
		pi := s.pages[pg]
		if pi.state[node] != Invalid {
			s.setState(pi, node, Invalid)
			s.stats[node].Invalidates++
			dropped = append(dropped, pg)
		}
		if pi.owner != node {
			continue
		}
		next := -1
		for n := 0; n < s.NumNodes; n++ {
			if n != node && pi.state[n] != Invalid {
				next = n
				break
			}
		}
		s.setOwner(pi, next)
		if next < 0 {
			// The dead node held the only copy; the next touch anywhere is a
			// cold zero-fill fault.
			lost = append(lost, pg)
		}
	}
	return dropped, lost
}

// ForceOwn transfers page ownership to node (Exclusive there, Invalid
// everywhere else), returning the previous owner (which holds the content)
// and whether a transfer is needed. Used by the eager whole-state
// (serialization-style) migration baseline.
func (s *Space) ForceOwn(node int, page uint64) (prevOwner int, moved bool) {
	pi := s.pages[page]
	if pi == nil || pi.owner < 0 {
		return -1, false
	}
	prev := pi.owner
	for n := range pi.state {
		s.setState(pi, n, Invalid)
	}
	s.setState(pi, node, Exclusive)
	s.setOwner(pi, node)
	return prev, prev != node
}
