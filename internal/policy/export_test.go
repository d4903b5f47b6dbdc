package policy

// Accessors for the external test package; no production code calls them.

// PD returns the current protecting distance.
func (p *PDP) PD() uint32 { return p.pd }
