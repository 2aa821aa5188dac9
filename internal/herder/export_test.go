package herder

// InFlightSlots reports the slots holding consensus instrumentation and
// the timeouts counted against them, for tests outside the package.
func (n *Node) InFlightSlots() (slots []uint64, timeouts int) {
	for s, st := range n.slotStats {
		slots = append(slots, s)
		timeouts += st.nomTimeouts + st.ballotTimeouts
	}
	return slots, timeouts
}
