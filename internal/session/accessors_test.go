package session

// ID returns the session's event identifier.
func (s *Session) ID() string { return s.cfg.ID }

// Epochs returns the number of completed decision epochs.
func (s *Session) Epochs() int { return s.epochs }
