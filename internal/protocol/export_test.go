package protocol

import "repro/internal/bgp"

// LearnedFrom exposes the learnedFrom attribution of path id at u to the
// external test package, whose reference selection materialises every
// candidate route itself.
func (e *Engine) LearnedFrom(u bgp.NodeID, id bgp.PathID) int { return e.learned[u][id] }
