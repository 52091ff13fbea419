package obs

// Enabled reports whether the span records anywhere.
func (s *Span) Enabled() bool { return s.rec != nil }
