package ftp

// Retries returns the number of stripe retry attempts so far.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Capacity returns the current capacity.
func (s *resizableSemaphore) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity
}

// Bytes returns the total bytes received.
func (d *DiscardSink) Bytes() int64 { return d.bytes.Load() }

// Register associates a file ID with a filesystem path.
func (s *DirSource) Register(fileID int64, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.paths == nil {
		s.paths = make(map[int64]string)
	}
	s.paths[fileID] = path
}
