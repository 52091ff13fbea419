package branch

// Width returns the configured width in bits.
func (h *History) Width() uint { return h.width }
